//! A workload deployed and driven open loop: the generator and control
//! plane on the calling thread, the receiver on its own thread.

use std::net::{SocketAddr, UdpSocket};

use rapidware_filters::rekey_packet;

use crate::clock::{now_ns, sleep_until};
use crate::harness::{
    link_loses_source, median, source_packet, stream_id, window_percentiles, Ledger, PhaseSpec,
    Schedule,
};
use crate::procfs::{self, CpuSplit};
use crate::rx::Receiver;
use crate::workload::{fec_encoder, Deployment, Workload, FEC_K, FEC_N};

/// Latency percentiles are taken per window of at least this many
/// deliveries (consecutive in due order), so a window's p99 has ten samples
/// beyond it; the median over windows is reported.
pub const WINDOW_SAMPLES: usize = 1_000;
/// After a stall the generator catches up at this multiple of the offered
/// rate, not in one burst: the streams stand for independent sources,
/// which a stall of the one generator thread does not synchronise.  The
/// delay still counts, since latency is taken from each due time.
const CATCH_UP: f64 = 2.0;
/// Shortest stretch, in ns, over which catch-up pacing is enforced.
const CATCH_UP_GROUP_NS: f64 = 100_000.0;
/// Seconds between `Proxy::status()` polls, as an operator would poll.
const STATUS_EVERY_S: f64 = 0.1;
/// Longest wait, past a phase's settle time, for deliveries the link did
/// not drop: a host stall near the end of a phase delays them, and a late
/// delivery is latency, not loss.
const STRAGGLER_WAIT_S: f64 = 2.0;
/// Interval between checks for stragglers, ns.
const STRAGGLER_POLL_NS: u64 = 5_000_000;

/// Correctness faults counted over one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Faults {
    /// Deliveries that were not byte-exact.
    pub corrupt: u64,
    /// Repeated deliveries.
    pub duplicate: u64,
    /// Undecodable datagrams, receiver filter errors and socket errors.
    pub receiver_errors: u64,
    /// AEAD rejections at the proxy and at the receiver.
    pub secure_rejected: u64,
    /// Kernel drops on the receiver socket plus failed sends.
    pub harness_drops: u64,
}

impl Faults {
    /// Adds `other` to `self`.
    pub fn add(&mut self, other: &Faults) {
        self.corrupt += other.corrupt;
        self.duplicate += other.duplicate;
        self.receiver_errors += other.receiver_errors;
        self.secure_rejected += other.secure_rejected;
        self.harness_drops += other.harness_drops;
    }

    fn since(&self, before: &Faults) -> Faults {
        Faults {
            corrupt: self.corrupt - before.corrupt,
            duplicate: self.duplicate - before.duplicate,
            receiver_errors: self.receiver_errors - before.receiver_errors,
            secure_rejected: self.secure_rejected - before.secure_rejected,
            harness_drops: self.harness_drops - before.harness_drops,
        }
    }
}

/// What one phase measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseOutcome {
    /// Offered rate, packets/s.
    pub rate: f64,
    /// Expected deliveries (packets × lanes).
    pub attempted: u64,
    /// Byte-exact deliveries.
    pub delivered: u64,
    /// Missing deliveries the emulated link alone explains.
    pub lost_to_link: u64,
    /// Every other missing delivery.
    pub lost_other: u64,
    /// Median latency of each window of deliveries, µs (lost packets
    /// count as over the limit).
    pub window_p50_us: Vec<f64>,
    /// p99 latency of each window, µs.
    pub window_p99_us: Vec<f64>,
    /// Median latency of the first and last quarter of the phase, µs.
    pub first_quarter_us: f64,
    /// See `first_quarter_us`.
    pub last_quarter_us: f64,
    /// On-CPU time over the phase (and its settle time), by thread group.
    pub cpu: CpuSplit,
    /// Wall time the CPU figures cover, ns.
    pub wall_ns: u64,
    /// Runtime polls and steals over the phase.
    pub polls: u64,
    /// See `polls`.
    pub steals: u64,
    /// Kernel drops on the carrier sockets.
    pub kernel_drops: u64,
    /// Frames the carriers shed (full route pipe or unknown stream).
    pub shed: u64,
    /// Deliveries that arrived only after the settle time.
    pub stragglers: u64,
    /// Correctness faults.
    pub faults: Faults,
    /// Host CPU clock ticks over the phase, and those of them stolen by
    /// the hypervisor (`/proc/stat`).
    pub host_ticks: u64,
    /// See `host_ticks`.
    pub steal_ticks: u64,
    /// Lateness of each send against its due time, µs.
    pub send_lag_us: Vec<f32>,
}

impl PhaseOutcome {
    /// Median over windows of the per-window median latency, µs.
    pub fn p50_us(&self) -> f64 {
        median(&self.window_p50_us)
    }

    /// Median over windows of the per-window p99 latency, µs.
    pub fn p99_us(&self) -> f64 {
        median(&self.window_p99_us)
    }

    /// Folds another segment of the same offered rate into this one.
    pub fn absorb(&mut self, other: PhaseOutcome) {
        self.attempted += other.attempted;
        self.delivered += other.delivered;
        self.lost_to_link += other.lost_to_link;
        self.lost_other += other.lost_other;
        self.window_p50_us.extend(other.window_p50_us);
        self.window_p99_us.extend(other.window_p99_us);
        self.cpu.proxy_ns += other.cpu.proxy_ns;
        self.cpu.worker_ns += other.cpu.worker_ns;
        self.cpu.reactor_ns += other.cpu.reactor_ns;
        self.wall_ns += other.wall_ns;
        self.polls += other.polls;
        self.steals += other.steals;
        self.kernel_drops += other.kernel_drops;
        self.shed += other.shed;
        self.stragglers += other.stragglers;
        self.faults.add(&other.faults);
        self.host_ticks += other.host_ticks;
        self.steal_ticks += other.steal_ticks;
        self.send_lag_us.extend(other.send_lag_us);
    }

    /// Source packets delivered (deliveries over lanes).
    pub fn delivered_packets(&self, lanes: usize) -> f64 {
        self.delivered as f64 / lanes as f64
    }

    /// Proxy on-CPU µs per delivered source packet.
    pub fn proxy_cpu_us_per_pkt(&self, lanes: usize) -> f64 {
        self.cpu.proxy_ns as f64 / 1_000.0 / self.delivered_packets(lanes).max(1.0)
    }

    /// Share of the host's CPU time the hypervisor stole over the phase.
    pub fn steal_ratio(&self) -> f64 {
        self.steal_ticks as f64 / self.host_ticks.max(1) as f64
    }

    /// Share of expected deliveries that arrived.
    pub fn delivered_ratio(&self) -> f64 {
        self.delivered as f64 / self.attempted.max(1) as f64
    }
}

/// A deployed workload with its load generator and receiver.
pub struct Rig {
    /// The workload.
    pub workload: Workload,
    seed: u64,
    trace: bool,
    /// The live deployment.
    pub deployment: Deployment,
    /// The receiver.
    pub receiver: Receiver,
    /// `setup_s` of every deployment built, the live one last.
    pub setups_s: Vec<f64>,
    socket: UdpSocket,
    schedule: Schedule,
    destinations: Vec<SocketAddr>,
    next_round: u64,
    scratch: Vec<u8>,
    epoch: u32,
    next_rekey_ns: u64,
    next_status_ns: u64,
    next_splice_ns: u64,
    spliced: bool,
    /// Duration of each `Proxy::status()` poll, µs.
    pub status_us: Vec<f64>,
    /// Duration of each live splice, µs.
    pub splice_us: Vec<f64>,
    /// Duration of each generator `send_to`, ns (traced runs only).
    pub send_ns: Vec<f32>,
    /// Sends the kernel refused.
    pub send_errors: u64,
}

impl Rig {
    /// Starts the receiver, builds the workload `builds` times (tearing
    /// all but the last down again) and readies the generator.
    pub fn start(
        workload: &Workload,
        seed: u64,
        trace: bool,
        telemetry: bool,
        builds: usize,
    ) -> Self {
        let schedule = Schedule::new(seed, workload.streams);
        let ledger = Ledger::new(
            seed,
            workload.media,
            workload.payload,
            workload.lanes.len(),
            schedule.clone(),
        );
        let receiver =
            Receiver::start(workload, seed, ledger, trace).expect("starting the receiver");
        let mut setups_s = Vec::new();
        let mut deployment = None;
        // The proxy's threads inherit the building thread's timer slack:
        // build them with the default, not the generator's tight slack.
        crate::sys::reset_timer_slack();
        for build in 0..builds.max(1) {
            let mut built = Deployment::build(workload, receiver.port, telemetry);
            setups_s.push(built.setup_s);
            if build + 1 < builds {
                built.proxy.shutdown().expect("tearing a set-up proxy down");
            } else {
                deployment = Some(built);
            }
        }
        let deployment = deployment.expect("at least one build");
        let destinations = (0..workload.streams)
            .map(|s| deployment.carrier_addr(s))
            .collect();
        let socket = UdpSocket::bind("127.0.0.1:0").expect("binding the generator socket");
        crate::sys::tighten_timer_slack();
        let now = now_ns();
        Self {
            workload: workload.clone(),
            seed,
            trace,
            deployment,
            receiver,
            setups_s,
            socket,
            schedule,
            destinations,
            next_round: 0,
            scratch: Vec::new(),
            epoch: 0,
            next_rekey_ns: now + (workload.rekey_every_s * 1e9) as u64,
            next_status_ns: now,
            next_splice_ns: now + (workload.splice.map_or(0.0, |(_, every)| every) * 1e9) as u64,
            spliced: false,
            status_us: Vec::new(),
            splice_us: Vec::new(),
            send_ns: Vec::new(),
            send_errors: 0,
        }
    }

    /// Running fault totals since the rig started.
    fn faults(&self) -> Faults {
        let (corrupt, duplicate) = {
            let ledger = self.receiver.shared.ledger.lock().expect("ledger lock");
            (ledger.corrupt, ledger.duplicate)
        };
        let counters = self.receiver.shared.counters.lock().expect("counters lock");
        let receiver_rejected: u64 = self
            .receiver
            .decrypts
            .iter()
            .map(|stats| stats.rejected())
            .sum();
        Faults {
            corrupt,
            duplicate,
            receiver_errors: counters.undecodable + counters.filter_errors + counters.socket_errors,
            secure_rejected: self.deployment.proxy.status().secure.rejected + receiver_rejected,
            harness_drops: procfs::udp_drops(&[self.receiver.port]) + self.send_errors,
        }
    }

    fn lanes(&self) -> usize {
        self.workload.lanes.len()
    }

    /// Runs the control schedule: status polls, and on the fanout workload
    /// the FEC toggle on one wired lane.
    fn control(&mut self, now: u64) {
        if now >= self.next_status_ns {
            let start = now_ns();
            std::hint::black_box(self.deployment.proxy.status());
            self.status_us.push((now_ns() - start) as f64 / 1_000.0);
            self.next_status_ns = now + (STATUS_EVERY_S * 1e9) as u64;
        }
        if let Some((lane, every)) = self.workload.splice {
            if now >= self.next_splice_ns {
                let session = self
                    .deployment
                    .proxy
                    .pooled_session("video")
                    .expect("the fanout session");
                let start = now_ns();
                if self.spliced {
                    session
                        .remove_lane_filter(lane, 0)
                        .expect("removing the toggled filter");
                } else {
                    session
                        .insert_lane_filter(lane, 0, &fec_encoder())
                        .expect("inserting the toggled filter");
                }
                self.splice_us.push((now_ns() - start) as f64 / 1_000.0);
                self.spliced = !self.spliced;
                self.next_splice_ns = now + (every * 1e9) as u64;
            }
        }
    }

    fn next_control_ns(&self) -> u64 {
        if self.workload.splice.is_some() {
            self.next_status_ns.min(self.next_splice_ns)
        } else {
            self.next_status_ns
        }
    }

    /// Sleeps until `due`, serving control events that fall before it.
    fn wait_until(&mut self, due: u64) {
        loop {
            let now = now_ns();
            if now >= due {
                return;
            }
            let control = self.next_control_ns();
            if now >= control {
                self.control(now);
                continue;
            }
            sleep_until(due.min(control));
        }
    }

    fn send(&mut self, to: SocketAddr) {
        let start = if self.trace { now_ns() } else { 0 };
        if self.socket.send_to(&self.scratch, to).is_err() {
            self.send_errors += 1;
        }
        if self.trace {
            self.send_ns.push((now_ns() - start) as f32);
        }
    }

    fn send_rekeys(&mut self, boundary: u64) {
        self.epoch += 1;
        for stream in 0..self.workload.streams {
            rekey_packet(stream_id(stream), self.epoch, boundary, now_ns() / 1_000)
                .encode_into(&mut self.scratch);
            self.send(self.destinations[stream]);
        }
    }

    /// Offers `rate` packets/s for `seconds`, waits out the settle time
    /// (and, with `await_stragglers`, up to [`STRAGGLER_WAIT_S`] more for
    /// deliveries still missing) and evaluates every delivery of the phase.
    /// The CPU, wall-time and runtime figures cover the phase and its
    /// settle time only.
    pub fn run_phase(&mut self, rate: f64, seconds: f64, await_stragglers: bool) -> PhaseOutcome {
        let streams = self.workload.streams;
        let spec = PhaseSpec {
            first_round: self.next_round,
            rounds: ((rate * seconds / streams as f64).round() as u64).max(1),
            tail: FEC_K as u64,
            start_ns: now_ns() + 1_000_000,
            period_ns: 1e9 / rate,
        };
        self.next_round = spec.end_round();
        let phase = self
            .receiver
            .shared
            .ledger
            .lock()
            .expect("ledger lock")
            .begin_phase(spec);
        let carrier_ports = self.deployment.carrier_ports();
        let kernel_before = procfs::udp_drops(&carrier_ports);
        let shed_before = self.deployment.shed();
        let faults_before = self.faults();
        let runtime_before = self
            .deployment
            .proxy
            .runtime()
            .map(|runtime| runtime.status());
        let cpu_before = procfs::cpu_split();
        let ticks_before = procfs::cpu_ticks();
        let wall_before = now_ns();

        let mut send_lag_us =
            Vec::with_capacity((spec.end_round() - spec.first_round) as usize * streams);
        let rekey_every = (self.workload.rekey_every_s * 1e9) as u64;
        // Catch-up pacing works on groups of packets lasting at least
        // CATCH_UP_GROUP_NS at the capped rate, so it never asks for a sleep
        // shorter than the generator can take.
        let catch_up_gap = spec.period_ns / CATCH_UP;
        let group = ((CATCH_UP_GROUP_NS / catch_up_gap).ceil() as usize).max(1);
        let group_ns = (group as f64 * catch_up_gap) as u64;
        let (mut group_start, mut in_group) = (0u64, 0usize);
        for round in spec.first_round..spec.end_round() {
            let now = now_ns();
            if now >= self.next_control_ns() {
                self.control(now);
            }
            if rekey_every > 0 && now >= self.next_rekey_ns {
                self.send_rekeys(round);
                self.next_rekey_ns = now + rekey_every;
            }
            for pos in 0..streams {
                let index = (round - spec.first_round) * streams as u64 + pos as u64;
                let due = spec.due_ns(index);
                if in_group == group {
                    self.wait_until(due.max(group_start + group_ns));
                    in_group = 0;
                } else {
                    self.wait_until(due);
                }
                if in_group == 0 {
                    group_start = now_ns();
                }
                in_group += 1;
                let stream = self.schedule.stream_at(round, pos);
                source_packet(
                    self.seed,
                    self.workload.media,
                    stream,
                    round,
                    self.workload.payload,
                    due / 1_000,
                )
                .encode_into(&mut self.scratch);
                send_lag_us.push((now_ns() - due) as f32 / 1_000.0);
                self.send(self.destinations[stream]);
            }
        }
        let settle_ns = (2.0 * self.workload.p99_limit_us * 1_000.0) as u64;
        self.wait_until(now_ns() + settle_ns);

        let cpu_after = procfs::cpu_split();
        let ticks_after = procfs::cpu_ticks();
        let wall_ns = now_ns() - wall_before;
        let runtime_after = self
            .deployment
            .proxy
            .runtime()
            .map(|runtime| runtime.status());
        let (polls, steals) = match (runtime_before, runtime_after) {
            (Some(before), Some(after)) => {
                (after.polls - before.polls, after.steals - before.steals)
            }
            _ => (0, 0),
        };
        let stragglers = if await_stragglers {
            self.await_stragglers(phase)
        } else {
            0
        };
        let mut outcome = self.evaluate(phase, rate);
        outcome.stragglers = stragglers;
        outcome.cpu = CpuSplit {
            proxy_ns: cpu_after.proxy_ns - cpu_before.proxy_ns,
            worker_ns: cpu_after.worker_ns - cpu_before.worker_ns,
            reactor_ns: cpu_after.reactor_ns - cpu_before.reactor_ns,
        };
        outcome.wall_ns = wall_ns;
        outcome.host_ticks = ticks_after.0 - ticks_before.0;
        outcome.steal_ticks = ticks_after.1 - ticks_before.1;
        outcome.polls = polls;
        outcome.steals = steals;
        outcome.kernel_drops = procfs::udp_drops(&carrier_ports) - kernel_before;
        outcome.shed = self.deployment.shed() - shed_before;
        outcome.faults = self.faults().since(&faults_before);
        outcome.send_lag_us = send_lag_us;
        outcome
    }

    /// Whether slot `slot` of `spec` is a delivery the emulated link alone
    /// lost.
    fn lost_to_link(&self, ledger: &Ledger, spec: &PhaseSpec, slot: usize) -> bool {
        let (round, stream, lane) = ledger.slot_coordinates(spec, slot);
        self.workload.lanes[lane].wireless
            && link_loses_source(
                self.seed,
                lane,
                stream,
                round,
                FEC_N,
                FEC_K,
                self.workload.loss,
            )
    }

    /// Deliveries of `phase` still missing that the link does not explain.
    fn missing(&self, phase: usize) -> u64 {
        let ledger = self.receiver.shared.ledger.lock().expect("ledger lock");
        let (spec, slots) = ledger.phase(phase);
        slots
            .iter()
            .enumerate()
            .filter(|(slot, latency)| latency.is_nan() && !self.lost_to_link(&ledger, spec, *slot))
            .count() as u64
    }

    /// Waits up to [`STRAGGLER_WAIT_S`] for the missing deliveries of
    /// `phase`; returns how many of them arrived.
    fn await_stragglers(&mut self, phase: usize) -> u64 {
        let missing = self.missing(phase);
        let give_up = now_ns() + (STRAGGLER_WAIT_S * 1e9) as u64;
        let mut left = missing;
        while left > 0 && now_ns() < give_up {
            self.wait_until(now_ns() + STRAGGLER_POLL_NS);
            left = self.missing(phase);
        }
        missing - left
    }

    fn evaluate(&self, phase: usize, rate: f64) -> PhaseOutcome {
        let ledger = self.receiver.shared.ledger.lock().expect("ledger lock");
        let (spec, slots) = ledger.phase(phase);
        let spec = *spec;
        let mut outcome = PhaseOutcome {
            rate,
            attempted: slots.len() as u64,
            ..PhaseOutcome::default()
        };
        for (slot, latency) in slots.iter().enumerate() {
            if !latency.is_nan() {
                outcome.delivered += 1;
                continue;
            }
            if self.lost_to_link(&ledger, &spec, slot) {
                outcome.lost_to_link += 1;
            } else {
                outcome.lost_other += 1;
            }
        }
        let lost_as = 10.0 * self.workload.p99_limit_us;
        let window = WINDOW_SAMPLES.max(self.workload.streams * self.lanes());
        outcome.window_p50_us = window_percentiles(slots, window, 0.5, lost_as);
        outcome.window_p99_us = window_percentiles(slots, window, 0.99, lost_as);
        let quarter = slots.len() / 4;
        let delivered = |part: &[f32]| {
            let values: Vec<f64> = part
                .iter()
                .filter(|v| !v.is_nan())
                .map(|&v| f64::from(v))
                .collect();
            median(&values)
        };
        outcome.first_quarter_us = delivered(&slots[..quarter.max(1).min(slots.len())]);
        outcome.last_quarter_us =
            delivered(&slots[slots.len() - quarter.max(1).min(slots.len())..]);
        outcome
    }

    /// Stops the proxy and then the receiver.
    pub fn shutdown(mut self) {
        self.deployment.proxy.shutdown().expect("proxy shutdown");
        self.receiver.stop();
    }
}
