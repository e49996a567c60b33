//! The three frozen workloads and how each is deployed on a proxy.

use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::time::Instant;

use rapidware_proxy::{
    FilterSpec, Proxy, RuntimeConfig, SharedUdpSessionConfig, SharedUdpStreamConfig,
    UdpCarrierConfig, UdpCarrierHandle,
};

use crate::harness::{stream_id, Media};

/// Worker shards of the proxy's pool (plus its one reactor thread).
pub const SHARDS: usize = 1;
/// Runtime step, carrier drain/flush and chain batch size.
pub const BATCH: usize = 32;
/// Pipe capacity of every chain, session and carrier route, in packets.
pub const CAPACITY: usize = 512;
/// FEC(n, k) used on every FEC-protected lane.
pub const FEC_N: usize = 6;
/// See [`FEC_N`].
pub const FEC_K: usize = 4;
/// Base key of the secure channel.
pub const KEY: u64 = 0x5EED;

/// One receiver lane: what the proxy runs for it and whether the link to
/// it is the lossy wireless one.
#[derive(Debug, Clone)]
pub struct Lane {
    /// Lane name on the proxy.
    pub name: &'static str,
    /// The emulated link drops this lane's datagrams; the receiver runs
    /// `fec-decoder` (and `decrypt` when the proxy encrypts).
    pub wireless: bool,
    /// The proxy's filters for this lane, in order.
    pub filters: Vec<FilterSpec>,
}

impl Lane {
    /// The proxy encrypts this lane.
    pub fn encrypted(&self) -> bool {
        self.filters.iter().any(|spec| spec.kind == "encrypt")
    }
}

/// A frozen workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used on the command line.
    pub name: &'static str,
    /// Source packet kind.
    pub media: Media,
    /// Source payload bytes.
    pub payload: usize,
    /// Application streams (stream ids 1..=streams).
    pub streams: usize,
    /// Shared-socket carriers; stream `s` rides carrier `s % carriers`.
    pub carriers: usize,
    /// One pooled fanout session (stream 0 only) instead of one pooled
    /// stream per stream id.
    pub session: bool,
    /// Receiver lanes: every lane of the session, or the one lane every
    /// flat stream has.
    pub lanes: Vec<Lane>,
    /// Bernoulli loss of the emulated wireless link.
    pub loss: f64,
    /// Fixed low offered load, packets/s over all streams.
    pub low_pps: f64,
    /// Fixed high offered load.
    pub high_pps: f64,
    /// p99 latency limit, µs.
    pub p99_limit_us: f64,
    /// Seconds between in-band rekey frames (0: none).
    pub rekey_every_s: f64,
    /// Lane whose FEC is toggled by splices, and the toggle period.
    pub splice: Option<(&'static str, f64)>,
}

/// The proxy-side FEC(n, k) encoder; the fanout workload's splices toggle
/// it on one wired lane.
pub fn fec_encoder() -> FilterSpec {
    FilterSpec::new("fec-encoder")
        .with_param("n", FEC_N.to_string())
        .with_param("k", FEC_K.to_string())
}

/// Every workload, in the order the benchmark lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "audio_fec_wireless",
            media: Media::Audio,
            payload: 320,
            streams: 32,
            carriers: 1,
            session: false,
            lanes: vec![Lane {
                name: "wireless",
                wireless: true,
                filters: vec![fec_encoder()],
            }],
            loss: 0.05,
            low_pps: 1_600.0,
            high_pps: 6_400.0,
            p99_limit_us: 20_000.0,
            rekey_every_s: 0.0,
            splice: None,
        },
        Workload {
            name: "fanout_secure_video",
            media: Media::Video,
            payload: 1024,
            streams: 1,
            carriers: 1,
            session: true,
            lanes: vec![
                Lane {
                    name: "wired0",
                    wireless: false,
                    filters: Vec::new(),
                },
                Lane {
                    name: "wired1",
                    wireless: false,
                    filters: Vec::new(),
                },
                Lane {
                    name: "wireless0",
                    wireless: true,
                    filters: vec![
                        FilterSpec::new("encrypt").with_param("key", KEY.to_string()),
                        fec_encoder(),
                    ],
                },
                Lane {
                    name: "wireless1",
                    wireless: true,
                    filters: vec![
                        FilterSpec::new("encrypt").with_param("key", KEY.to_string()),
                        fec_encoder(),
                    ],
                },
            ],
            loss: 0.05,
            low_pps: 500.0,
            high_pps: 2_500.0,
            p99_limit_us: 50_000.0,
            rekey_every_s: 1.0,
            splice: Some(("wired1", 0.5)),
        },
        Workload {
            name: "fanin_small",
            media: Media::Data,
            payload: 64,
            streams: 256,
            carriers: 4,
            session: false,
            lanes: vec![Lane {
                name: "wired",
                wireless: false,
                filters: Vec::new(),
            }],
            loss: 0.0,
            low_pps: 2_560.0,
            high_pps: 25_600.0,
            p99_limit_us: 20_000.0,
            rekey_every_s: 0.0,
            splice: None,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|workload| workload.name == name)
}

/// Where lane `lane` is delivered: every lane targets the receiver's one
/// socket, through its own loopback address so the receiver can tell
/// lanes apart.
pub fn lane_addr(lane: usize, port: u16) -> SocketAddr {
    SocketAddr::V4(SocketAddrV4::new(
        Ipv4Addr::new(127, 0, 0, 1 + lane as u8),
        port,
    ))
}

/// The lane a destination address stands for.
pub fn lane_of(dest: Ipv4Addr, lanes: usize) -> Option<usize> {
    let octets = dest.octets();
    let lane = usize::from(octets[3]).checked_sub(1)?;
    (octets[..3] == [127, 0, 0] && lane < lanes).then_some(lane)
}

/// A workload deployed on a live proxy.
pub struct Deployment {
    /// The proxy, on a [`SHARDS`]-worker pool.
    pub proxy: Proxy,
    /// One handle per carrier.
    pub carriers: Vec<UdpCarrierHandle>,
    /// Seconds from `Proxy::with_runtime` to the last filter installed.
    pub setup_s: f64,
    /// Duration of each `add_*_udp_shared` call, µs.
    pub add_us: Vec<f64>,
    /// Duration of each filter splice made during setup, µs.
    pub splice_us: Vec<f64>,
}

impl Deployment {
    /// Builds `workload` on a fresh proxy delivering to the receiver at
    /// `receiver_port`; `telemetry` enables the proxy's telemetry first.
    pub fn build(workload: &Workload, receiver_port: u16, telemetry: bool) -> Self {
        let start = Instant::now();
        let mut proxy = Proxy::with_runtime(
            "perfbench",
            RuntimeConfig::new(SHARDS, BATCH).with_pipe_capacity(CAPACITY),
        );
        if telemetry {
            proxy.enable_telemetry();
        }
        let carriers: Vec<UdpCarrierHandle> = (0..workload.carriers)
            .map(|carrier| {
                proxy
                    .add_udp_carrier(
                        format!("c{carrier}"),
                        UdpCarrierConfig::new()
                            .with_capacity(CAPACITY)
                            .with_batch_size(BATCH),
                    )
                    .expect("binding a loopback carrier")
            })
            .collect();
        let mut add_us = Vec::new();
        let mut splice_us = Vec::new();
        let timed = |samples: &mut Vec<f64>, op: &mut dyn FnMut()| {
            let t = Instant::now();
            op();
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        };
        if workload.session {
            let mut config = SharedUdpSessionConfig::on_carrier("c0")
                .with_stream(stream_id(0))
                .with_capacity(CAPACITY)
                .with_batch_size(BATCH);
            for (index, lane) in workload.lanes.iter().enumerate() {
                config = config.with_lane(lane.name, lane_addr(index, receiver_port));
            }
            timed(&mut add_us, &mut || {
                proxy
                    .add_session_udp_shared("video", config.clone())
                    .expect("adding the session");
            });
            let session = proxy
                .pooled_session("video")
                .expect("the session just added");
            for lane in &workload.lanes {
                for (position, spec) in lane.filters.iter().enumerate() {
                    timed(&mut splice_us, &mut || {
                        session
                            .insert_lane_filter(lane.name, position, spec)
                            .expect("installing a lane filter");
                    });
                }
            }
        } else {
            let lane = &workload.lanes[0];
            for stream in 0..workload.streams {
                let name = format!("s{stream}");
                let config = SharedUdpStreamConfig::on_carrier(
                    format!("c{}", stream % workload.carriers),
                    lane_addr(0, receiver_port),
                )
                .with_stream(stream_id(stream))
                .with_capacity(CAPACITY)
                .with_batch_size(BATCH);
                timed(&mut add_us, &mut || {
                    proxy
                        .add_stream_udp_shared(name.clone(), config.clone())
                        .expect("adding a stream");
                });
                for (position, spec) in lane.filters.iter().enumerate() {
                    timed(&mut splice_us, &mut || {
                        proxy
                            .insert_filter(&name, position, spec)
                            .expect("installing a filter");
                    });
                }
            }
        }
        let setup_s = start.elapsed().as_secs_f64();
        Self {
            proxy,
            carriers,
            setup_s,
            add_us,
            splice_us,
        }
    }

    /// The carrier a stream's datagrams are sent to.
    pub fn carrier_addr(&self, stream: usize) -> SocketAddr {
        self.carriers[stream % self.carriers.len()].ingress_addr()
    }

    /// Local ports of the carriers' sockets.
    pub fn carrier_ports(&self) -> Vec<u16> {
        self.carriers
            .iter()
            .map(|carrier| carrier.ingress_addr().port())
            .collect()
    }

    /// Frames the carriers dropped: routed to a full pipe or to no stream.
    pub fn shed(&self) -> u64 {
        self.carriers
            .iter()
            .map(|carrier| carrier.ingress_stats().dropped())
            .sum()
    }

    /// Datagrams the carriers could not route to a stream.
    pub fn unknown_streams(&self) -> u64 {
        self.carriers
            .iter()
            .map(UdpCarrierHandle::unknown_streams)
            .sum()
    }
}
