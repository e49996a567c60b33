//! The receiver thread: one socket for every lane, the emulated wireless
//! link applied on receipt, the receiver-side filters, and the ledger.

use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rapidware_filters::{
    DecryptFilter, FecDecoderFilter, FecDecoderStats, FilterChain, SecureChannelStats,
};
use rapidware_packet::{Packet, PacketKind};

use crate::clock::now_ns;
use crate::harness::{link_drops, Ledger};
use crate::sys;
use crate::workload::{lane_of, Workload, FEC_K, FEC_N, KEY};

/// Counters the receiver keeps beside the ledger.
#[derive(Debug, Default, Clone)]
pub struct RxCounters {
    /// Source datagrams that reached the socket on FEC-protected lanes.
    pub fec_sources: u64,
    /// Parity datagrams that reached the socket on FEC-protected lanes.
    pub fec_parities: u64,
    /// Source datagrams the emulated link dropped.
    pub link_dropped_sources: u64,
    /// Datagrams that failed to decode, were truncated, or came to an
    /// address that is no lane.
    pub undecodable: u64,
    /// Receiver-side filter errors.
    pub filter_errors: u64,
    /// Socket errors other than a timeout.
    pub socket_errors: u64,
    /// Duration of each non-blocking `recvmsg` that returned a datagram, ns.
    pub recv_ns: Vec<f32>,
}

/// State shared between the receiver thread and the main thread.
pub struct RxShared {
    /// Verification and latency slots.
    pub ledger: Mutex<Ledger>,
    /// Side counters.
    pub counters: Mutex<RxCounters>,
    stop: AtomicBool,
}

/// The running receiver.
pub struct Receiver {
    /// Shared state.
    pub shared: Arc<RxShared>,
    /// Local port every lane delivers to.
    pub port: u16,
    /// FEC decoder counters of every receiver chain.
    pub decoders: Vec<Arc<FecDecoderStats>>,
    /// Secure-channel counters of every receiver `decrypt`.
    pub decrypts: Vec<Arc<SecureChannelStats>>,
    join: Option<JoinHandle<()>>,
}

impl Receiver {
    /// Binds the receiver socket and starts the thread.
    pub fn start(workload: &Workload, seed: u64, ledger: Ledger, trace: bool) -> io::Result<Self> {
        let socket = UdpSocket::bind("0.0.0.0:0")?;
        sys::enable_pktinfo(&socket)?;
        sys::set_recv_buffer(&socket, 32 << 20)?;
        socket.set_read_timeout(Some(Duration::from_millis(20)))?;
        let port = socket.local_addr()?.port();
        let lanes = workload.lanes.len();
        let mut decoders = Vec::new();
        let mut decrypts = Vec::new();
        let mut chains: Vec<Option<FilterChain>> = Vec::new();
        for lane in &workload.lanes {
            for _ in 0..workload.streams {
                if !lane.wireless {
                    chains.push(None);
                    continue;
                }
                let mut chain = FilterChain::new();
                let decoder = FecDecoderFilter::new(FEC_N, FEC_K).expect("valid FEC parameters");
                decoders.push(decoder.stats());
                chain
                    .push_back(Box::new(decoder))
                    .expect("empty chain accepts a filter");
                if lane.encrypted() {
                    let decrypt = DecryptFilter::new(KEY);
                    decrypts.push(decrypt.stats());
                    chain
                        .push_back(Box::new(decrypt))
                        .expect("chain accepts a filter");
                }
                chains.push(Some(chain));
            }
        }
        let shared = Arc::new(RxShared {
            ledger: Mutex::new(ledger),
            counters: Mutex::new(RxCounters::default()),
            stop: AtomicBool::new(false),
        });
        let context = RxContext {
            shared: Arc::clone(&shared),
            seed,
            loss: workload.loss,
            wireless: workload.lanes.iter().map(|lane| lane.wireless).collect(),
            lanes,
            streams: workload.streams,
            chains,
            trace,
        };
        let join = std::thread::Builder::new()
            .name("bench-rx".to_string())
            .spawn(move || context.run(&socket))?;
        Ok(Self {
            shared,
            port,
            decoders,
            decrypts,
            join: Some(join),
        })
    }

    /// Stops the thread and waits for it.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            join.join().expect("the receiver thread does not panic");
        }
    }
}

impl Drop for Receiver {
    fn drop(&mut self) {
        self.stop();
    }
}

struct RxContext {
    shared: Arc<RxShared>,
    seed: u64,
    loss: f64,
    wireless: Vec<bool>,
    lanes: usize,
    streams: usize,
    /// Receiver-side chain of each (lane, stream); `None` on wired lanes.
    chains: Vec<Option<FilterChain>>,
    trace: bool,
}

impl RxContext {
    fn run(mut self, socket: &UdpSocket) {
        sys::tighten_timer_slack();
        let mut buf = vec![0u8; 9_000];
        let mut local = RxCounters::default();
        while !self.shared.stop.load(Ordering::Relaxed) {
            // Block (up to the read timeout) for the first datagram, then
            // drain what is queued without blocking.
            match sys::recv_with_dest(socket, &mut buf, true) {
                Ok(datagram) => self.handle(&buf, datagram, &mut local),
                Err(err) if is_timeout(&err) => {}
                Err(_) => local.socket_errors += 1,
            }
            loop {
                let start = now_ns();
                match sys::recv_with_dest(socket, &mut buf, false) {
                    Ok(datagram) => {
                        if self.trace {
                            local.recv_ns.push((now_ns() - start) as f32);
                        }
                        self.handle(&buf, datagram, &mut local);
                    }
                    Err(err) if is_timeout(&err) => break,
                    Err(_) => {
                        local.socket_errors += 1;
                        break;
                    }
                }
            }
            self.publish(&mut local);
        }
        self.publish(&mut local);
    }

    fn publish(&self, local: &mut RxCounters) {
        let mut counters = self.shared.counters.lock().expect("counters lock");
        counters.fec_sources += local.fec_sources;
        counters.fec_parities += local.fec_parities;
        counters.link_dropped_sources += local.link_dropped_sources;
        counters.undecodable += local.undecodable;
        counters.filter_errors += local.filter_errors;
        counters.socket_errors += local.socket_errors;
        counters.recv_ns.append(&mut local.recv_ns);
        *local = RxCounters::default();
    }

    fn handle(&mut self, buf: &[u8], datagram: sys::Datagram, counters: &mut RxCounters) {
        let now = now_ns();
        let lane = datagram.dest.and_then(|dest| lane_of(dest, self.lanes));
        let packet = match (lane, datagram.truncated) {
            (Some(_), false) => Packet::decode(&buf[..datagram.len]).ok(),
            _ => None,
        };
        let (Some(lane), Some(packet)) = (lane, packet) else {
            counters.undecodable += 1;
            return;
        };
        let stream = packet.stream().value() as usize;
        let chain_index =
            (stream >= 1 && stream <= self.streams).then(|| lane * self.streams + stream - 1);
        if !self.wireless[lane] {
            // Wired lanes deliver as they are; parity (while a splice has
            // FEC on the lane) and control frames carry no source data.
            if packet.kind().is_payload() {
                self.shared
                    .ledger
                    .lock()
                    .expect("ledger lock")
                    .accept(lane, &packet, now);
            }
            return;
        }
        let Some(chain_index) = chain_index else {
            self.shared
                .ledger
                .lock()
                .expect("ledger lock")
                .accept(lane, &packet, now);
            return;
        };
        let slot = match packet.kind() {
            PacketKind::Parity { block, index, .. } => {
                counters.fec_parities += 1;
                Some((block.value(), usize::from(index)))
            }
            kind if kind.is_payload() => {
                counters.fec_sources += 1;
                let seq = packet.seq().value();
                Some((seq / FEC_K as u64, (seq % FEC_K as u64) as usize))
            }
            // Control frames (rekeys) ride the reliable control path.
            _ => None,
        };
        if let Some((block, slot)) = slot {
            if link_drops(self.seed, lane, stream - 1, block, slot, self.loss) {
                if slot < FEC_K {
                    counters.link_dropped_sources += 1;
                }
                return;
            }
        }
        let chain = self.chains[chain_index]
            .as_mut()
            .expect("wireless lanes have receiver chains");
        match chain.process_batch(vec![packet]) {
            Ok(out) => {
                let mut ledger = self.shared.ledger.lock().expect("ledger lock");
                for packet in out.iter().filter(|packet| packet.kind().is_payload()) {
                    ledger.accept(lane, packet, now);
                }
            }
            Err(_) => counters.filter_errors += 1,
        }
    }
}

fn is_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}
