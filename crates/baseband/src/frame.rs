//! End-to-end OFDM frame pipeline — the software WARP board.
//!
//! Mirrors the paper's WarpLab chain (§3.1): random bitstream → (optional
//! convolutional coding) → constellation mapping → subcarrier mapping →
//! IFFT (64- or 128-point) → cyclic prefix → Barker preamble → channel →
//! preamble detection → CP strip → FFT → per-subcarrier equalization /
//! Alamouti combining → demapping → (Viterbi) → BER/PER counting.
//!
//! Channel bonding is implemented exactly as the paper describes: "by
//! appropriately changing the subcarrier mappings, and using a 128-point
//! FFT (as opposed to a 64-point FFT with a 20 MHz channel)". The physics
//! of the CB penalty emerges naturally rather than being painted on: the
//! same total transmit power spreads over 108 instead of 52 data
//! subcarriers while the per-sample noise variance doubles with the
//! sampling bandwidth, so the per-subcarrier SNR drops by ~3 dB.
//!
//! # Engine architecture
//!
//! The Monte-Carlo loop is built around three ideas (see DESIGN.md,
//! "Baseband engine"):
//!
//! * **[`FrameWorkspace`]** owns every buffer a packet needs — grids,
//!   sample streams, coded-bit scratch, Viterbi survivor memory, FFT
//!   blocks — so the steady-state per-packet path performs *zero* heap
//!   allocations once warm.
//! * **Per-packet seeds.** Packet `i` of a trial runs on its own
//!   `StdRng` seeded with [`mix_seed`]`(seed, i)` (a splitmix64
//!   finalizer), making packets statistically independent *and*
//!   order-free: any packet can run on any worker and the result is the
//!   same.
//! * **Associative merging.** Workers return per-packet
//!   [`PacketOutcome`]s; the trial folds them in packet-index order, so
//!   floating-point accumulation order — and therefore every output bit —
//!   is identical to the sequential loop at any thread count. One chunked
//!   fan-out serves [`try_run_trial`] and [`run_trials`] alike.

use crate::channel::{add_awgn, convolve_acc, frequency_response_into, ChannelModel};
use crate::convcode::Codec;
use crate::cplx::{mean_power, Cplx};
use crate::fft::{plan, FftPlan, FFT_BATCH};
use crate::modem::{demodulate_into, modulate_into};
use crate::preamble::{build_preamble_into, detect_preamble, preamble_len};
use crate::prefix::{cp_len_for, extend_with_cp};
use crate::stbc::{alamouti_combine, alamouti_slot, Mimo2x2};
pub use acorn_core::par::mix_seed;
use acorn_core::par::par_map_n;
use acorn_obs::{names, NullSink, Sink};
use acorn_phy::{ChannelWidth, CodeRate, Modulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;

/// Equalized symbols kept per packet for EVM statistics and the
/// constellation sample.
const CONSTELLATION_PER_PACKET: usize = 512;
/// Only the first packets of a trial contribute constellation points, so
/// the pre-subsampling sample stays bounded for arbitrarily long sweeps
/// (EVM still accumulates over *every* packet).
const CONSTELLATION_PACKETS: usize = 64;
/// Hard upper bound on the constellation sample a report retains.
const CONSTELLATION_CAP: usize = 4096;
/// Packets per parallel work item *and* per batched
/// [`FrameWorkspace::run_packets`] call on the trial paths. Chunking is by
/// fixed packet index ranges, so the partition — and hence the result — is
/// independent of the worker count. Public so benchmarks can record the
/// effective batch size next to their numbers.
pub const PACKET_CHUNK: usize = 8;

/// How the receiver finds the frame start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncMode {
    /// The receiver is told the exact frame offset (the paper's BERMAC
    /// effectively has this: both boards are loaded with the same known
    /// payload, so raw-BER measurement is sync-independent). No preamble
    /// is transmitted.
    Genie,
    /// Barker correlation detection with the given normalized threshold;
    /// a missed detection makes the whole frame a packet error.
    Preamble {
        /// Normalized correlation threshold in `(0, 1)`.
        threshold: f64,
    },
}

/// How the receiver obtains its per-subcarrier channel estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Equalization {
    /// The receiver is handed the exact channel frequency response (no
    /// training overhead, no estimation noise). Use for validating against
    /// closed-form theory — the paper's Fig. 3a comparison implicitly has
    /// this property because BER is computed on known payloads.
    Genie,
    /// Least-squares estimation from `symbols` known training OFDM symbols
    /// (averaged). Estimation noise scales as `1/symbols`; real preamble
    /// designs use 2–4 long training fields.
    Training {
        /// Number of training OFDM symbols to average (per antenna for
        /// STBC). Must be ≥ 1.
        symbols: usize,
    },
}

/// A structurally invalid [`FrameConfig`] — the typed alternative to
/// aborting an experiment binary mid-sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The channel's delay spread does not fit inside the cyclic prefix,
    /// so inter-symbol interference would leak between OFDM symbols and
    /// per-subcarrier equalization would be invalid.
    ChannelMemoryExceedsCp {
        /// Channel memory in samples (taps − 1).
        memory: usize,
        /// Cyclic-prefix length in samples for the configured width/GI.
        cp: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::ChannelMemoryExceedsCp { memory, cp } => write!(
                f,
                "channel memory ({memory}) exceeds the cyclic prefix ({cp})"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Full configuration of one Monte-Carlo link experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameConfig {
    /// Channel width (selects FFT size and subcarrier map).
    pub width: ChannelWidth,
    /// Subcarrier modulation.
    pub modulation: Modulation,
    /// FEC; `None` reproduces the paper's *uncoded* WARP measurements.
    pub code_rate: Option<CodeRate>,
    /// `true` → 2×2 Alamouti STBC (the paper's WARP mode); `false` → SISO.
    pub stbc: bool,
    /// Total transmit power, linear relative units (width-independent, as
    /// the 802.11n spec mandates).
    pub tx_power: f64,
    /// Noise variance per complex sample *at 20 MHz sampling*; the 40 MHz
    /// path automatically doubles it (same N₀, twice the bandwidth).
    pub noise_density: f64,
    /// Fading model for each antenna path.
    pub channel: ChannelModel,
    /// Payload length in bytes (the paper uses 1500).
    pub packet_bytes: usize,
    /// Frame-synchronization mode.
    pub sync: SyncMode,
    /// Channel-estimation mode.
    pub equalization: Equalization,
    /// Guard interval: long (800 ns, N/4 cyclic prefix) or short (400 ns,
    /// N/8) — the rate-boosting option of the paper's footnote 2.
    pub gi: acorn_phy::GuardInterval,
}

impl FrameConfig {
    /// A clean baseline config: uncoded QPSK, SISO, AWGN, genie sync,
    /// 1500-byte packets, unit noise density.
    pub fn baseline(width: ChannelWidth) -> FrameConfig {
        FrameConfig {
            width,
            modulation: Modulation::Qpsk,
            code_rate: None,
            stbc: false,
            tx_power: 1.0,
            noise_density: 1.0,
            channel: ChannelModel::Awgn,
            packet_bytes: 1500,
            sync: SyncMode::Genie,
            equalization: Equalization::Training { symbols: 4 },
            gi: acorn_phy::GuardInterval::Long,
        }
    }

    /// Checks structural validity: the channel's delay spread must fit
    /// inside the cyclic prefix of this width/GI combination.
    pub fn validate(&self) -> Result<(), FrameError> {
        let cp = cp_len_for(self.width.fft_size(), self.gi);
        let memory = self.channel.memory();
        if memory > cp {
            return Err(FrameError::ChannelMemoryExceedsCp { memory, cp });
        }
        Ok(())
    }

    /// Number of training OFDM symbols sent per transmit antenna.
    fn n_train(&self) -> usize {
        match self.equalization {
            Equalization::Genie => 0,
            Equalization::Training { symbols } => symbols.max(1),
        }
    }

    /// Per-sample noise variance for this config's width.
    pub fn sample_noise(&self) -> f64 {
        match self.width {
            ChannelWidth::Ht20 => self.noise_density,
            ChannelWidth::Ht40 => 2.0 * self.noise_density,
        }
    }

    /// Per-subcarrier data amplitude for this config: the total transmit
    /// power `P` spread over the data subcarriers, expressed on the
    /// unnormalized-FFT grid (`A = N·√(P/N_data)`).
    pub fn subcarrier_amplitude(&self) -> f64 {
        let n = self.width.fft_size() as f64;
        let nd = self.width.data_subcarriers() as f64;
        n * (self.tx_power / nd).sqrt()
    }

    /// The per-subcarrier SNR (dB) this config produces:
    /// `γ = A² / (N·σ²) = N·P / (N_data·σ²)`.
    pub fn snr_per_subcarrier_db(&self) -> f64 {
        let n = self.width.fft_size() as f64;
        let nd = self.width.data_subcarriers() as f64;
        let gamma = n * self.tx_power / (nd * self.sample_noise());
        10.0 * gamma.log10()
    }

    /// Sets `tx_power` so the per-subcarrier SNR equals `snr_db` at this
    /// config's width and noise density.
    pub fn with_target_snr(mut self, snr_db: f64) -> FrameConfig {
        let n = self.width.fft_size() as f64;
        let nd = self.width.data_subcarriers() as f64;
        let gamma = 10f64.powf(snr_db / 10.0);
        self.tx_power = gamma * nd * self.sample_noise() / n;
        self
    }
}

/// Aggregated results of a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameReport {
    /// Total payload bits compared.
    pub bits: usize,
    /// Payload bits received in error.
    pub bit_errors: usize,
    /// Packets transmitted.
    pub packets: usize,
    /// Packets with ≥ 1 payload bit error (or a sync failure).
    pub packet_errors: usize,
    /// Frames whose preamble was not detected (only in `Preamble` sync).
    pub sync_failures: usize,
    /// Sample of equalized data-subcarrier symbols (unit-energy scale),
    /// for constellation plots (Fig. 2). Drawn from the first packets of
    /// the trial and decimated to ≤ 4096 points by an exact stride.
    pub constellation: Vec<Cplx>,
    /// RMS error-vector magnitude over the sampled symbols of *every*
    /// packet.
    pub evm_rms: f64,
    /// The configured per-subcarrier SNR (dB) for convenience.
    pub snr_per_subcarrier_db: f64,
    /// Measured mean transmit power of the time-domain signal (sanity
    /// check that 20/40 MHz use the same total power).
    pub measured_tx_power: f64,
}

impl FrameReport {
    /// Bit error rate.
    pub fn ber(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.bit_errors as f64 / self.bits as f64
        }
    }

    /// Packet error rate.
    pub fn per(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.packet_errors as f64 / self.packets as f64
        }
    }
}

/// Everything one packet contributes to a [`FrameReport`]. `Copy`, so
/// parallel workers can ship per-packet values back to the fold, which
/// re-accumulates them in packet-index order — the floating-point sums
/// come out bit-identical to the sequential loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketOutcome {
    /// Payload bits compared.
    pub bits: usize,
    /// Payload bits in error (all of them on a sync failure).
    pub bit_errors: usize,
    /// The preamble correlator missed the frame.
    pub sync_failed: bool,
    /// Measured mean transmit power of this packet's frame.
    pub tx_power: f64,
    /// Σ|rx − tx|² over the sampled equalized symbols.
    pub evm_sum: f64,
    /// Number of symbols in `evm_sum`.
    pub evm_n: usize,
}

/// Indices of the data subcarriers on the FFT grid, DC (bin 0) excluded,
/// split symmetrically over positive and negative frequencies — the
/// "subcarrier mapping" the paper changes to implement CB. Computed once
/// per width and returned as a shared slice.
pub fn data_subcarrier_bins(width: ChannelWidth) -> &'static [usize] {
    static BINS_20: OnceLock<Vec<usize>> = OnceLock::new();
    static BINS_40: OnceLock<Vec<usize>> = OnceLock::new();
    let cell = match width {
        ChannelWidth::Ht20 => &BINS_20,
        ChannelWidth::Ht40 => &BINS_40,
    };
    cell.get_or_init(|| {
        let n = width.fft_size();
        let nd = width.data_subcarriers();
        let half = nd / 2;
        let mut bins = Vec::with_capacity(nd);
        // Positive frequencies: bins 1..=half.
        bins.extend(1..=half);
        // Negative frequencies: bins n-half..n-1 … plus one extra positive
        // bin if nd is odd (it never is for 52/108, but stay correct).
        bins.extend(n - (nd - half)..n);
        bins
    })
}

/// The known training grid: unit-energy QPSK-like pilots on every data
/// subcarrier with a deterministic phase pattern (good PAPR is not a goal
/// here, channel identifiability is). Values carry the subcarrier
/// amplitude — the scale the *receiver* references for LS estimation.
fn training_grid_into(width: ChannelWidth, amplitude: f64, out: &mut Vec<Cplx>) {
    let bins = data_subcarrier_bins(width);
    out.clear();
    out.resize(width.fft_size(), Cplx::ZERO);
    for (i, &b) in bins.iter().enumerate() {
        out[b] = Cplx::cis(std::f64::consts::PI * ((i * i) % 7) as f64 / 3.5).scale(amplitude);
    }
}

/// Preallocated scratch for the whole per-packet pipeline. Build one (or
/// let [`run_trial`] keep one per worker thread), feed it packets forever:
/// after the first packet of a given [`FrameConfig`] shape, the hot path
/// touches the allocator zero times.
///
/// Holds an `Rc` to the cached FFT plan, so a workspace is intentionally
/// *not* `Send` — each worker thread owns its own.
#[derive(Debug, Default)]
pub struct FrameWorkspace {
    /// Config the precomputed members (plan, training grid, preamble)
    /// were derived for.
    last: Option<FrameConfig>,
    fft: Option<Rc<FftPlan>>,
    /// Receiver-scale training grid (subcarrier amplitude applied).
    train: Vec<Cplx>,
    /// Time-domain preamble at the configured power (Preamble sync only).
    preamble: Vec<Cplx>,

    // Transmit side.
    info: Vec<bool>,
    /// Rate-1/2 mother-code scratch (punctured rates only).
    mother: Vec<bool>,
    /// Transmitted coded bits (coded configs only; uncoded maps `info`).
    coded: Vec<bool>,
    tx_symbols: Vec<Cplx>,
    /// Grid / IFFT scratch, antenna 1.
    grid: Vec<Cplx>,
    /// Grid / IFFT scratch, antenna 2 (STBC).
    grid2: Vec<Cplx>,
    streams: [Vec<Cplx>; 2],

    // Channel.
    taps: [[Vec<Cplx>; 2]; 2],
    /// Preamble ++ stream concatenation scratch (Preamble sync only).
    full: Vec<Cplx>,
    rx: [Vec<Cplx>; 2],

    // Receive side.
    fft_buf: [Vec<Cplx>; 4],
    h: Vec<Cplx>,
    /// Per-bin `1/(H·A)` — equalization is one complex multiply per
    /// symbol instead of a divide plus a scale.
    inv_h: Vec<Cplx>,
    h_mimo: Vec<Mimo2x2>,
    /// Second Alamouti output row scratch.
    row: Vec<Cplx>,
    rx_symbols: Vec<Cplx>,
    rx_bits: Vec<bool>,
    rx_info: Vec<bool>,
    /// Depunctured received-symbol class bytes, one per trellis step.
    classes: Vec<u8>,
    /// Packed Viterbi survivor words, one `u64` per trellis step.
    survivor: Vec<u64>,
    /// Planar lane buffers for the batched FFT kernels (`FFT_BATCH`
    /// transforms in bin-major layout).
    batch_re: Vec<f64>,
    batch_im: Vec<f64>,
}

impl FrameWorkspace {
    /// An empty workspace; buffers grow to their steady-state sizes on the
    /// first packet.
    pub fn new() -> FrameWorkspace {
        FrameWorkspace::default()
    }

    /// Re-derives the config-dependent precomputations (FFT plan, training
    /// grid, preamble) when the config changes; no-op otherwise.
    fn ensure(&mut self, config: &FrameConfig) {
        if self.last.as_ref() == Some(config) {
            return;
        }
        let n = config.width.fft_size();
        if self.fft.as_ref().map_or(true, |p| p.len() != n) {
            self.fft = Some(plan(n));
        }
        training_grid_into(config.width, config.subcarrier_amplitude(), &mut self.train);
        if matches!(config.sync, SyncMode::Preamble { .. }) {
            build_preamble_into(config.tx_power.sqrt(), &mut self.preamble);
        }
        self.last = Some(*config);
    }

    /// Runs one packet with its own RNG stream (see [`mix_seed`]) through
    /// the full pipeline. Zero allocations once the workspace is warm for
    /// this config shape.
    ///
    /// The equalized symbols stay in the workspace; read the
    /// constellation sample via
    /// [`constellation_sample`](FrameWorkspace::constellation_sample)
    /// before the next packet overwrites it.
    pub fn run_packet(
        &mut self,
        config: &FrameConfig,
        packet_seed: u64,
    ) -> Result<PacketOutcome, FrameError> {
        self.run_packet_obs(config, packet_seed, &NullSink)
    }

    /// [`run_packet`](FrameWorkspace::run_packet) with per-stage spans and
    /// packet/sync-failure counters reported to `sink`. With [`NullSink`]
    /// this is exactly `run_packet`: the spans compile to nothing and the
    /// zero-allocation guarantee holds.
    pub fn run_packet_obs<S: Sink>(
        &mut self,
        config: &FrameConfig,
        packet_seed: u64,
        sink: &S,
    ) -> Result<PacketOutcome, FrameError> {
        config.validate()?;
        self.ensure(config);
        let mut rng = StdRng::seed_from_u64(packet_seed);
        Ok(run_packet_inner(config, self, &mut rng, sink))
    }

    /// Runs one packet per seed through the pipeline, appending a
    /// [`PacketOutcome`] per packet to `outcomes` (cleared first). This is
    /// the batched engine entry: config validation and the `ensure`d
    /// precomputations (FFT plan, training grid, preamble) are hoisted out
    /// of the per-packet loop, so per-packet fixed costs amortize over the
    /// batch. Packet `k` runs on `StdRng::seed_from_u64(seeds[k])` —
    /// exactly what [`run_packet`](FrameWorkspace::run_packet) would do —
    /// so the outcomes are bit-identical to `seeds.iter().map(|&s|
    /// ws.run_packet(config, s))`, and zero allocations occur once the
    /// workspace is warm and `outcomes` has capacity.
    pub fn run_packets(
        &mut self,
        config: &FrameConfig,
        seeds: &[u64],
        outcomes: &mut Vec<PacketOutcome>,
    ) -> Result<(), FrameError> {
        self.run_batch(config, seeds, outcomes, 0, None)
    }

    /// The shared batched loop: validates and [`ensure`]s once, then runs
    /// every seed back-to-back. The first `capture_first` packets append
    /// their constellation samples to `constellation` (the trial paths
    /// capture the globally-first [`CONSTELLATION_PACKETS`] packets; the
    /// plain batched entry captures none).
    fn run_batch(
        &mut self,
        config: &FrameConfig,
        seeds: &[u64],
        outcomes: &mut Vec<PacketOutcome>,
        capture_first: usize,
        mut constellation: Option<&mut Vec<Cplx>>,
    ) -> Result<(), FrameError> {
        config.validate()?;
        self.ensure(config);
        outcomes.clear();
        outcomes.reserve(seeds.len());
        for (k, &packet_seed) in seeds.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(packet_seed);
            let o = run_packet_inner(config, self, &mut rng, &NullSink);
            if k < capture_first {
                if let Some(c) = constellation.as_deref_mut() {
                    c.extend_from_slice(self.constellation_sample());
                }
            }
            outcomes.push(o);
        }
        Ok(())
    }

    /// The equalized data symbols of the last packet, capped at the
    /// per-packet constellation budget.
    pub fn constellation_sample(&self) -> &[Cplx] {
        let n = self.rx_symbols.len().min(CONSTELLATION_PER_PACKET);
        &self.rx_symbols[..n]
    }
}

/// One packet through the pipeline; every buffer comes from `ws`.
fn run_packet_inner<S: Sink>(
    config: &FrameConfig,
    ws: &mut FrameWorkspace,
    rng: &mut StdRng,
    sink: &S,
) -> PacketOutcome {
    sink.inc(names::BASEBAND_PACKETS);
    let cp = cp_len_for(config.width.fft_size(), config.gi);
    let amplitude = config.subcarrier_amplitude();
    let info_len = config.packet_bytes * 8;

    // 1. Payload and (optional) FEC; the uncoded path modulates `info`
    //    directly (no copy).
    let codec = {
        let _span = sink.span(names::BASEBAND_STAGE_ENCODE);
        ws.info.clear();
        ws.info.extend((0..info_len).map(|_| rng.gen::<bool>()));
        let codec = config.code_rate.map(Codec::new);
        match codec {
            Some(c) => {
                c.encode_into(&ws.info, &mut ws.mother, &mut ws.coded);
                // 2. Constellation mapping.
                modulate_into(config.modulation, &ws.coded, &mut ws.tx_symbols);
            }
            None => modulate_into(config.modulation, &ws.info, &mut ws.tx_symbols),
        }
        codec
    };

    // 3-4. Subcarrier mapping + IFFT + CP, per antenna.
    {
        let _span = sink.span(names::BASEBAND_STAGE_STREAMS);
        if config.stbc {
            build_stbc_streams(config, amplitude, cp, ws);
        } else {
            build_siso_stream(config, amplitude, cp, ws);
        }
    }

    // 5. Channel + noise per receive antenna. Under Genie sync no
    //    preamble is transmitted, so the frame starts at offset 0.
    let channel_span = sink.span(names::BASEBAND_STAGE_CHANNEL);
    let n_ant = if config.stbc { 2 } else { 1 };
    for i in 0..n_ant {
        for j in 0..n_ant {
            config.channel.draw_taps_into(rng, &mut ws.taps[i][j]);
        }
    }
    let mut tx_power_meas = 0.0;
    for s in ws.streams.iter().take(n_ant) {
        tx_power_meas += mean_power(s);
    }

    let frame_offset = match config.sync {
        SyncMode::Genie => 0,
        SyncMode::Preamble { .. } => preamble_len(),
    };
    let frame_len = ws.streams[0].len();
    for j in 0..n_ant {
        let (rx_all, streams, taps, full, preamble) = (
            &mut ws.rx,
            &ws.streams,
            &ws.taps,
            &mut ws.full,
            &ws.preamble,
        );
        let rx = &mut rx_all[j];
        rx.clear();
        rx.resize(frame_offset + frame_len, Cplx::ZERO);
        for (i, stream) in streams.iter().take(n_ant).enumerate() {
            if frame_offset == 0 {
                convolve_acc(stream, &taps[i][j], rx);
            } else {
                // Antenna 1 carries the preamble; other antennas are
                // silent while it airs.
                full.clear();
                if i == 0 {
                    full.extend_from_slice(preamble);
                } else {
                    full.resize(frame_offset, Cplx::ZERO);
                }
                full.extend_from_slice(stream);
                convolve_acc(full, &taps[i][j], rx);
            }
        }
        add_awgn(rx, config.sample_noise(), rng);
    }
    drop(channel_span);

    // 6. Synchronization.
    let data_start = {
        let _span = sink.span(names::BASEBAND_STAGE_SYNC);
        match config.sync {
            SyncMode::Genie => frame_offset,
            SyncMode::Preamble { threshold } => match detect_preamble(&ws.rx[0], 4, threshold) {
                Some(off) => off,
                None => {
                    sink.inc(names::BASEBAND_SYNC_FAILURES);
                    ws.rx_symbols.clear();
                    return PacketOutcome {
                        bits: info_len,
                        bit_errors: info_len,
                        sync_failed: true,
                        tx_power: tx_power_meas,
                        evm_sum: 0.0,
                        evm_n: 0,
                    };
                }
            },
        }
    };

    // 7. FFT + equalize/combine.
    let (evm_sum, evm_n) = {
        let _span = sink.span(names::BASEBAND_STAGE_RECEIVE);
        if config.stbc {
            receive_stbc(config, amplitude, data_start, cp, ws);
        } else {
            receive_siso(config, amplitude, data_start, cp, ws);
        }

        // Constellation / EVM bookkeeping (up to 512 symbols per packet).
        let mut evm_sum = 0.0;
        let mut evm_n = 0usize;
        for (txs, rxs) in ws
            .tx_symbols
            .iter()
            .zip(ws.rx_symbols.iter())
            .take(CONSTELLATION_PER_PACKET)
        {
            evm_sum += (*rxs - *txs).norm_sqr();
            evm_n += 1;
        }
        (evm_sum, evm_n)
    };

    // 8. Demap + decode + count.
    let _span = sink.span(names::BASEBAND_STAGE_DECODE);
    demodulate_into(config.modulation, &ws.rx_symbols, &mut ws.rx_bits);
    let bit_errors = match codec {
        Some(c) => {
            c.decode_into(
                &ws.rx_bits[..ws.coded.len()],
                info_len,
                &mut ws.classes,
                &mut ws.survivor,
                &mut ws.rx_info,
            );
            ws.rx_info
                .iter()
                .zip(&ws.info)
                .filter(|(a, b)| a != b)
                .count()
        }
        None => ws
            .rx_bits
            .iter()
            .zip(&ws.info)
            .filter(|(a, b)| a != b)
            .count(),
    };
    PacketOutcome {
        bits: info_len,
        bit_errors,
        sync_failed: false,
        tx_power: tx_power_meas,
        evm_sum,
        evm_n,
    }
}

/// SISO transmit: `n_train` training symbols followed by data symbols.
/// The IFFT's `1/N` is folded into the per-bin scale, so the transform
/// runs unnormalized.
fn build_siso_stream(config: &FrameConfig, amplitude: f64, cp: usize, ws: &mut FrameWorkspace) {
    let n = config.width.fft_size();
    let bins = data_subcarrier_bins(config.width);
    let fft = ws.fft.as_ref().expect("ensure() ran").clone();
    let inv_n = 1.0 / n as f64;
    let amp = amplitude * inv_n;
    let n_train = config.n_train();

    let (stream, grid, train) = (&mut ws.streams[0], &mut ws.grid, &ws.train);
    stream.clear();
    let n_data_ofdm = ws.tx_symbols.len().div_ceil(bins.len());
    stream.reserve((n_train + n_data_ofdm) * (n + cp));
    // Every training symbol carries the same grid: transform once and
    // replay the time-domain block.
    if n_train > 0 {
        grid.clear();
        grid.extend(train.iter().map(|t| t.scale(inv_n)));
        fft.inverse_raw(grid);
        for _ in 0..n_train {
            extend_with_cp(stream, grid, cp);
        }
    }
    // Data symbols go through the batched kernel FFT_BATCH at a time;
    // each lane is bit-identical to the single-transform path, so the
    // remainder symbols fall through to it unchanged.
    let mut chunks = ws.tx_symbols.chunks(bins.len());
    let (re, im) = (&mut ws.batch_re, &mut ws.batch_im);
    while chunks.len() >= FFT_BATCH {
        re.clear();
        re.resize(n * FFT_BATCH, 0.0);
        im.clear();
        im.resize(n * FFT_BATCH, 0.0);
        for l in 0..FFT_BATCH {
            let chunk = chunks.next().expect("length checked above");
            for (slot, sym) in chunk.iter().enumerate() {
                let s = sym.scale(amp);
                re[bins[slot] * FFT_BATCH + l] = s.re;
                im[bins[slot] * FFT_BATCH + l] = s.im;
            }
        }
        fft.inverse_raw_batch(re, im);
        for l in 0..FFT_BATCH {
            // De-transpose the lane into the contiguous grid, then let
            // `extend_with_cp` memcpy CP + body as usual.
            grid.clear();
            grid.extend((0..n).map(|i| Cplx::new(re[i * FFT_BATCH + l], im[i * FFT_BATCH + l])));
            extend_with_cp(stream, grid, cp);
        }
    }
    for chunk in chunks {
        grid.clear();
        grid.resize(n, Cplx::ZERO);
        for (slot, sym) in chunk.iter().enumerate() {
            grid[bins[slot]] = sym.scale(amp);
        }
        fft.inverse_raw(grid);
        extend_with_cp(stream, grid, cp);
    }
}

/// STBC transmit: two training slots (antenna 1 alone, then antenna 2
/// alone) followed by Alamouti-encoded data symbol pairs. Data OFDM
/// symbols are implicitly padded to an even count.
fn build_stbc_streams(config: &FrameConfig, amplitude: f64, cp: usize, ws: &mut FrameWorkspace) {
    let n = config.width.fft_size();
    let bins = data_subcarrier_bins(config.width);
    let fft = ws.fft.as_ref().expect("ensure() ran").clone();
    let inv_n = 1.0 / n as f64;
    // Each antenna radiates half the power (the 1/√2 Alamouti factor).
    let ka = amplitude * inv_n * std::f64::consts::SQRT_2.recip();
    let n_train = config.n_train();
    let nd = bins.len();
    let n_sym = ws.tx_symbols.len();
    let n_ofdm = n_sym.div_ceil(nd);
    let n_pairs = n_ofdm.div_ceil(2).max(0);

    let [s1, s2] = &mut ws.streams;
    let (grid, grid2, train, tx_symbols) = (&mut ws.grid, &mut ws.grid2, &ws.train, &ws.tx_symbols);
    s1.clear();
    s2.clear();
    let total_ofdm = 2 * n_train + 2 * n_pairs;
    s1.reserve(total_ofdm * (n + cp));
    s2.reserve(total_ofdm * (n + cp));

    // Training: antenna 1 alone, then antenna 2 alone.
    for phase in 0..2usize {
        for _ in 0..n_train {
            grid.clear();
            grid2.clear();
            if phase == 0 {
                grid.extend(train.iter().map(|t| t.scale(inv_n)));
                grid2.resize(n, Cplx::ZERO);
            } else {
                grid.resize(n, Cplx::ZERO);
                grid2.extend(train.iter().map(|t| t.scale(inv_n)));
            }
            fft.inverse_raw(grid);
            fft.inverse_raw(grid2);
            extend_with_cp(s1, grid, cp);
            extend_with_cp(s2, grid2, cp);
        }
    }

    // Alamouti data pairs: slot t1 sends (s1, s2), slot t2 (−s2*, s1*).
    for p in 0..n_pairs {
        let c1 = &tx_symbols[(2 * p * nd).min(n_sym)..((2 * p + 1) * nd).min(n_sym)];
        let c2 = &tx_symbols[((2 * p + 1) * nd).min(n_sym)..((2 * p + 2) * nd).min(n_sym)];
        for time in 0..2usize {
            grid.clear();
            grid.resize(n, Cplx::ZERO);
            grid2.clear();
            grid2.resize(n, Cplx::ZERO);
            for slot in 0..c1.len().max(c2.len()) {
                let x1 = c1.get(slot).copied().unwrap_or(Cplx::ZERO);
                let x2 = c2.get(slot).copied().unwrap_or(Cplx::ZERO);
                [grid[bins[slot]], grid2[bins[slot]]] = alamouti_slot(x1, x2, time, ka);
            }
            fft.inverse_raw(grid);
            fft.inverse_raw(grid2);
            extend_with_cp(s1, grid, cp);
            extend_with_cp(s2, grid2, cp);
        }
    }
}

/// Copies the CP-stripped OFDM block starting at `start` into `buf` and
/// transforms it (all-zeros if the block runs off the end of `stream`, as
/// a bad sync offset can make it).
fn fft_block_into(stream: &[Cplx], start: usize, cp: usize, fft: &FftPlan, buf: &mut Vec<Cplx>) {
    let n = fft.len();
    buf.clear();
    match stream.get(start..start + cp + n) {
        Some(block) => buf.extend_from_slice(&block[cp..]),
        None => buf.resize(n, Cplx::ZERO),
    }
    fft.forward(buf);
}

/// SISO receive: obtain H (genie or averaged training), fold `1/(H·A)`
/// into one per-bin multiplier, equalize.
fn receive_siso(
    config: &FrameConfig,
    amplitude: f64,
    data_start: usize,
    cp: usize,
    ws: &mut FrameWorkspace,
) {
    let n = config.width.fft_size();
    let bins = data_subcarrier_bins(config.width);
    let block = n + cp;
    let n_train = config.n_train();
    let fft = ws.fft.as_ref().expect("ensure() ran").clone();

    // Channel estimate: genie frequency response or LS over the training
    // symbols, averaged.
    match config.equalization {
        Equalization::Genie => frequency_response_into(&ws.taps[0][0], &fft, &mut ws.h),
        Equalization::Training { .. } => {
            let (h, fb, rx, train) = (&mut ws.h, &mut ws.fft_buf[0], &ws.rx[0], &ws.train);
            h.clear();
            h.resize(n, Cplx::ZERO);
            let k = 1.0 / n_train as f64;
            for t in 0..n_train {
                fft_block_into(rx, data_start + t * block, cp, &fft, fb);
                for &b in bins {
                    h[b] += (fb[b] / train[b]).scale(k);
                }
            }
        }
    }
    let inv_amp = 1.0 / amplitude;
    ws.inv_h.clear();
    ws.inv_h.resize(n, Cplx::ZERO);
    for &b in bins {
        ws.inv_h[b] = (Cplx::ONE / ws.h[b]).scale(inv_amp);
    }

    let (out, fb, rx, inv_h) = (&mut ws.rx_symbols, &mut ws.fft_buf[0], &ws.rx[0], &ws.inv_h);
    let n_symbols = ws.tx_symbols.len();
    out.clear();
    out.reserve(n_symbols);
    let n_data_ofdm = n_symbols.div_ceil(bins.len());
    let end_idx = n_train + n_data_ofdm;
    let mut ofdm_idx = n_train;
    // Full groups of FFT_BATCH data symbols run through the batched
    // kernel; each lane is bit-identical to `fft_block_into`, and the
    // equalizing multiply is the same either way, so the symbol stream
    // matches the sequential path exactly.
    let (re, im) = (&mut ws.batch_re, &mut ws.batch_im);
    while end_idx - ofdm_idx >= FFT_BATCH {
        re.clear();
        re.resize(n * FFT_BATCH, 0.0);
        im.clear();
        im.resize(n * FFT_BATCH, 0.0);
        for l in 0..FFT_BATCH {
            let start = data_start + (ofdm_idx + l) * block;
            // A block running off the end stays all-zero, matching
            // `fft_block_into` on a bad sync offset.
            if let Some(blk) = rx.get(start..start + cp + n) {
                for (i, z) in blk[cp..].iter().enumerate() {
                    re[i * FFT_BATCH + l] = z.re;
                    im[i * FFT_BATCH + l] = z.im;
                }
            }
        }
        fft.forward_batch(re, im);
        for l in 0..FFT_BATCH {
            for &b in bins {
                if out.len() >= n_symbols {
                    break;
                }
                out.push(Cplx::new(re[b * FFT_BATCH + l], im[b * FFT_BATCH + l]) * inv_h[b]);
            }
        }
        ofdm_idx += FFT_BATCH;
    }
    while out.len() < n_symbols {
        fft_block_into(rx, data_start + ofdm_idx * block, cp, &fft, fb);
        for &b in bins {
            if out.len() >= n_symbols {
                break;
            }
            out.push(fb[b] * inv_h[b]);
        }
        ofdm_idx += 1;
    }
}

/// STBC receive: estimate the four per-subcarrier paths from the two
/// training slots, then Alamouti-combine each data pair.
fn receive_stbc(
    config: &FrameConfig,
    amplitude: f64,
    data_start: usize,
    cp: usize,
    ws: &mut FrameWorkspace,
) {
    let n = config.width.fft_size();
    let bins = data_subcarrier_bins(config.width);
    let block = n + cp;
    let n_train = config.n_train();
    let fft = ws.fft.as_ref().expect("ensure() ran").clone();

    // h[tx][rx] per subcarrier: genie responses or LS estimates averaged
    // over the per-antenna training slots (antenna 1 trains in slots
    // 0..n_train, antenna 2 in n_train..2·n_train).
    ws.h_mimo.clear();
    ws.h_mimo.resize(
        n,
        Mimo2x2 {
            h: [[Cplx::ZERO; 2]; 2],
        },
    );
    match config.equalization {
        Equalization::Genie => {
            for i in 0..2 {
                for j in 0..2 {
                    frequency_response_into(&ws.taps[i][j], &fft, &mut ws.fft_buf[2 * i + j]);
                }
            }
            for &b in bins {
                ws.h_mimo[b] = Mimo2x2 {
                    h: [
                        [ws.fft_buf[0][b], ws.fft_buf[1][b]],
                        [ws.fft_buf[2][b], ws.fft_buf[3][b]],
                    ],
                };
            }
        }
        Equalization::Training { .. } => {
            let k = 1.0 / n_train as f64;
            for t in 0..n_train {
                {
                    let [fb0, fb1, fb2, fb3] = &mut ws.fft_buf;
                    fft_block_into(&ws.rx[0], data_start + t * block, cp, &fft, fb0);
                    fft_block_into(&ws.rx[1], data_start + t * block, cp, &fft, fb1);
                    fft_block_into(&ws.rx[0], data_start + (n_train + t) * block, cp, &fft, fb2);
                    fft_block_into(&ws.rx[1], data_start + (n_train + t) * block, cp, &fft, fb3);
                }
                for &b in bins {
                    let tr = ws.train[b];
                    let h = &mut ws.h_mimo[b].h;
                    h[0][0] += (ws.fft_buf[0][b] / tr).scale(k);
                    h[0][1] += (ws.fft_buf[1][b] / tr).scale(k);
                    h[1][0] += (ws.fft_buf[2][b] / tr).scale(k);
                    h[1][1] += (ws.fft_buf[3][b] / tr).scale(k);
                }
            }
        }
    }

    let inv_amp = 1.0 / amplitude;
    let n_symbols = ws.tx_symbols.len();
    ws.rx_symbols.clear();
    ws.rx_symbols.reserve(n_symbols);
    let mut pair_idx = 0usize;
    while ws.rx_symbols.len() < n_symbols {
        let base = data_start + (2 * n_train + 2 * pair_idx) * block;
        {
            let [fb0, fb1, fb2, fb3] = &mut ws.fft_buf;
            fft_block_into(&ws.rx[0], base, cp, &fft, fb0);
            fft_block_into(&ws.rx[0], base + block, cp, &fft, fb1);
            fft_block_into(&ws.rx[1], base, cp, &fft, fb2);
            fft_block_into(&ws.rx[1], base + block, cp, &fft, fb3);
        }
        // First OFDM symbol of the pair yields s1 on each subcarrier, the
        // second yields s2; reconstruct in transmit order.
        ws.row.clear();
        for &b in bins {
            let (sy1, sy2) = alamouti_combine(
                &ws.h_mimo[b],
                [ws.fft_buf[0][b], ws.fft_buf[1][b]],
                [ws.fft_buf[2][b], ws.fft_buf[3][b]],
            );
            if ws.rx_symbols.len() < n_symbols {
                ws.rx_symbols.push(sy1.scale(inv_amp));
            }
            ws.row.push(sy2.scale(inv_amp));
        }
        for i in 0..ws.row.len() {
            if ws.rx_symbols.len() >= n_symbols {
                break;
            }
            ws.rx_symbols.push(ws.row[i]);
        }
        pair_idx += 1;
    }
}

/// Accumulator for folding [`PacketOutcome`]s in packet-index order.
struct ReportFold {
    report: FrameReport,
    evm_sum: f64,
    evm_n: usize,
    tx_power_acc: f64,
}

impl ReportFold {
    fn new(config: &FrameConfig) -> ReportFold {
        ReportFold {
            report: FrameReport {
                bits: 0,
                bit_errors: 0,
                packets: 0,
                packet_errors: 0,
                sync_failures: 0,
                constellation: Vec::new(),
                evm_rms: 0.0,
                snr_per_subcarrier_db: config.snr_per_subcarrier_db(),
                measured_tx_power: 0.0,
            },
            evm_sum: 0.0,
            evm_n: 0,
            tx_power_acc: 0.0,
        }
    }

    fn push(&mut self, o: &PacketOutcome) {
        self.report.packets += 1;
        self.report.bits += o.bits;
        self.report.bit_errors += o.bit_errors;
        if o.sync_failed {
            self.report.sync_failures += 1;
        }
        if o.bit_errors > 0 || o.sync_failed {
            self.report.packet_errors += 1;
        }
        self.evm_sum += o.evm_sum;
        self.evm_n += o.evm_n;
        self.tx_power_acc += o.tx_power;
    }

    fn finish(mut self) -> FrameReport {
        self.report.evm_rms = if self.evm_n > 0 {
            (self.evm_sum / self.evm_n as f64).sqrt()
        } else {
            0.0
        };
        self.report.measured_tx_power = self.tx_power_acc / self.report.packets.max(1) as f64;
        subsample_constellation(&mut self.report.constellation);
        self.report
    }
}

/// Exact deterministic decimation to ≤ [`CONSTELLATION_CAP`] points: keep
/// index `⌊i·len/cap⌋` for `i < cap` — strictly increasing when
/// `len > cap`, so the bound always holds and the retained points are
/// stable for a given input length.
fn subsample_constellation(v: &mut Vec<Cplx>) {
    let len = v.len();
    if len <= CONSTELLATION_CAP {
        return;
    }
    for i in 0..CONSTELLATION_CAP {
        v[i] = v[i * len / CONSTELLATION_CAP];
    }
    v.truncate(CONSTELLATION_CAP);
}

/// Derives the per-packet seeds for global indices `[lo, hi)` into a
/// stack buffer (`hi - lo ≤ PACKET_CHUNK` on every trial path).
fn chunk_seeds(seed: u64, lo: usize, hi: usize) -> [u64; PACKET_CHUNK] {
    debug_assert!(hi - lo <= PACKET_CHUNK);
    let mut seeds = [0u64; PACKET_CHUNK];
    for i in lo..hi {
        seeds[i - lo] = mix_seed(seed, i as u64);
    }
    seeds
}

/// One chunk of packets `[lo, hi)` on the caller's workspace via the
/// batched entry; returns the per-packet outcomes plus this chunk's
/// constellation contribution (packets with global index below
/// [`CONSTELLATION_PACKETS`] — always a prefix of the chunk).
fn run_chunk(
    config: &FrameConfig,
    seed: u64,
    lo: usize,
    hi: usize,
    ws: &mut FrameWorkspace,
) -> (Vec<PacketOutcome>, Vec<Cplx>) {
    let mut outcomes = Vec::with_capacity(hi - lo);
    let mut constellation = Vec::new();
    let seeds = chunk_seeds(seed, lo, hi);
    let capture = CONSTELLATION_PACKETS.saturating_sub(lo).min(hi - lo);
    ws.run_batch(
        config,
        &seeds[..hi - lo],
        &mut outcomes,
        capture,
        Some(&mut constellation),
    )
    .expect("config validated before fan-out");
    (outcomes, constellation)
}

thread_local! {
    /// One workspace per worker thread, reused across chunks, trials and
    /// whole sweeps (the sequential path runs on the caller's thread and
    /// so reuses the caller's workspace across every call).
    static TRIAL_WS: RefCell<FrameWorkspace> = RefCell::new(FrameWorkspace::new());
}

/// Sequential reference: runs `n_packets` packets on the caller-provided
/// workspace. Produces exactly the same [`FrameReport`] as
/// [`try_run_trial`] — the parallel fan-out is defined as equal to this
/// fold.
pub fn run_trial_with(
    config: &FrameConfig,
    n_packets: usize,
    seed: u64,
    ws: &mut FrameWorkspace,
) -> Result<FrameReport, FrameError> {
    config.validate()?;
    let mut fold = ReportFold::new(config);
    let mut outcomes = Vec::with_capacity(PACKET_CHUNK);
    let mut lo = 0usize;
    while lo < n_packets {
        let hi = (lo + PACKET_CHUNK).min(n_packets);
        let seeds = chunk_seeds(seed, lo, hi);
        let capture = CONSTELLATION_PACKETS.saturating_sub(lo).min(hi - lo);
        ws.run_batch(
            config,
            &seeds[..hi - lo],
            &mut outcomes,
            capture,
            Some(&mut fold.report.constellation),
        )?;
        for o in &outcomes {
            fold.push(o);
        }
        lo = hi;
    }
    Ok(fold.finish())
}

/// Runs `n_packets` independent packets through the pipeline in parallel
/// and aggregates a [`FrameReport`]. Deterministic for a given `seed`:
/// per-packet RNG streams ([`mix_seed`]) plus an index-ordered fold make
/// the result bit-identical at any `ACORN_THREADS` setting, including the
/// sequential path of [`run_trial_with`].
pub fn try_run_trial(
    config: &FrameConfig,
    n_packets: usize,
    seed: u64,
) -> Result<FrameReport, FrameError> {
    fan_out(vec![config.validate().map(|()| (config, seed))], n_packets).remove(0)
}

/// The one chunked fan-out of the parallel trial paths: job `j` runs
/// `n_packets` packets of its config on its seed. The
/// [`PACKET_CHUNK`]-packet chunks of every valid job go through one
/// `par_map_n`, so worker workspaces warm up once and stay hot across a
/// whole sweep, and each job's chunks fold in packet-index order. An
/// invalid job keeps its error.
fn fan_out(
    jobs: Vec<Result<(&FrameConfig, u64), FrameError>>,
    n_packets: usize,
) -> Vec<Result<FrameReport, FrameError>> {
    let n_chunks = n_packets.div_ceil(PACKET_CHUNK);
    let valid: Vec<(&FrameConfig, u64)> = jobs.iter().filter_map(|j| j.ok()).collect();
    let chunks = par_map_n(valid.len() * n_chunks, |k| {
        let (config, seed) = valid[k / n_chunks];
        let lo = k % n_chunks * PACKET_CHUNK;
        let hi = (lo + PACKET_CHUNK).min(n_packets);
        TRIAL_WS.with(|cell| run_chunk(config, seed, lo, hi, &mut cell.borrow_mut()))
    });
    let mut chunks = chunks.into_iter();
    jobs.into_iter()
        .map(|job| {
            let mut fold = ReportFold::new(job?.0);
            for (outcomes, constellation) in chunks.by_ref().take(n_chunks) {
                for o in &outcomes {
                    fold.push(o);
                }
                fold.report.constellation.extend_from_slice(&constellation);
            }
            Ok(fold.finish())
        })
        .collect()
}

/// [`try_run_trial`] for callers that treat a bad config as a bug: panics
/// with the [`FrameError`] message (e.g. when the channel memory exceeds
/// the cyclic prefix).
pub fn run_trial(config: &FrameConfig, n_packets: usize, seed: u64) -> FrameReport {
    match try_run_trial(config, n_packets, seed) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// Batched sweep API: runs `n_packets` packets for *every* config of a
/// grid through one parallel fan-out, so worker workspaces warm up once
/// and stay hot across the whole sweep (an SNR grid reuses each worker's
/// buffers across all its points).
///
/// Config `i` runs on the derived seed `mix_seed(seed, i)`; its report is
/// bit-identical to `try_run_trial(&configs[i], n_packets,
/// mix_seed(seed, i as u64))` at any thread count. Invalid configs yield
/// their `Err` without disturbing the rest of the sweep.
pub fn run_trials(
    configs: &[FrameConfig],
    n_packets: usize,
    seed: u64,
) -> Vec<Result<FrameReport, FrameError>> {
    let jobs = configs
        .iter()
        .zip(0u64..)
        .map(|(c, i)| c.validate().map(|()| (c, mix_seed(seed, i))))
        .collect();
    fan_out(jobs, n_packets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subcarrier_maps_have_right_size_and_skip_dc() {
        for w in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
            let bins = data_subcarrier_bins(w);
            assert_eq!(bins.len(), w.data_subcarriers());
            assert!(!bins.contains(&0), "DC must stay empty");
            assert!(bins.iter().all(|&b| b < w.fft_size()));
            let mut uniq = bins.to_vec();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), bins.len(), "bins must be unique");
            // The cached slice is stable across calls.
            assert_eq!(bins.as_ptr(), data_subcarrier_bins(w).as_ptr());
        }
    }

    #[test]
    fn noiseless_siso_is_error_free() {
        for w in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
            for m in Modulation::ALL {
                let mut cfg = FrameConfig::baseline(w);
                cfg.modulation = m;
                cfg.noise_density = 0.0;
                cfg.packet_bytes = 200;
                let r = run_trial(&cfg, 2, 1);
                assert_eq!(r.bit_errors, 0, "{w:?}/{m:?}");
                assert_eq!(r.packet_errors, 0);
                assert!(r.evm_rms < 1e-9, "EVM {}", r.evm_rms);
            }
        }
    }

    #[test]
    fn noiseless_stbc_is_error_free() {
        let mut cfg = FrameConfig::baseline(ChannelWidth::Ht20);
        cfg.stbc = true;
        cfg.noise_density = 0.0;
        cfg.channel = ChannelModel::FlatRayleigh;
        cfg.packet_bytes = 200;
        let r = run_trial(&cfg, 3, 2);
        assert_eq!(r.bit_errors, 0);
    }

    #[test]
    fn obs_packet_run_matches_plain_run_and_counts_stages() {
        use acorn_obs::RecordingSink;

        let mut cfg = FrameConfig::baseline(ChannelWidth::Ht20);
        cfg.packet_bytes = 120;
        let sink = RecordingSink::new();
        let mut ws_plain = FrameWorkspace::new();
        let mut ws_obs = FrameWorkspace::new();
        let n = 5u64;
        for i in 0..n {
            let seed = mix_seed(42, i);
            let plain = ws_plain.run_packet(&cfg, seed).unwrap();
            let obs = ws_obs.run_packet_obs(&cfg, seed, &sink).unwrap();
            assert_eq!(plain.bits, obs.bits);
            assert_eq!(plain.bit_errors, obs.bit_errors);
            assert_eq!(plain.sync_failed, obs.sync_failed);
            assert_eq!(plain.tx_power.to_bits(), obs.tx_power.to_bits());
        }
        let snap = sink.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        assert_eq!(counter(names::BASEBAND_PACKETS), n);
        for stage in [
            names::BASEBAND_STAGE_ENCODE,
            names::BASEBAND_STAGE_STREAMS,
            names::BASEBAND_STAGE_CHANNEL,
            names::BASEBAND_STAGE_SYNC,
            names::BASEBAND_STAGE_RECEIVE,
            names::BASEBAND_STAGE_DECODE,
        ] {
            assert_eq!(counter(stage), n, "{stage}");
        }
        assert_eq!(counter(names::BASEBAND_SYNC_FAILURES), 0);
    }

    #[test]
    fn noiseless_selective_channel_is_equalized() {
        let mut cfg = FrameConfig::baseline(ChannelWidth::Ht40);
        cfg.noise_density = 0.0;
        cfg.channel = ChannelModel::SelectiveRayleigh {
            taps: 8,
            delay_spread_taps: 2.0,
        };
        cfg.packet_bytes = 150;
        let r = run_trial(&cfg, 3, 3);
        assert_eq!(
            r.bit_errors, 0,
            "per-subcarrier equalization must fix a static channel"
        );
    }

    #[test]
    fn equal_tx_power_across_widths() {
        // The 802.11n constraint: both widths transmit the same total power.
        let cfg20 = FrameConfig::baseline(ChannelWidth::Ht20);
        let cfg40 = FrameConfig::baseline(ChannelWidth::Ht40);
        let r20 = run_trial(&cfg20, 2, 4);
        let r40 = run_trial(&cfg40, 2, 4);
        let ratio = r40.measured_tx_power / r20.measured_tx_power;
        assert!((ratio - 1.0).abs() < 0.1, "tx power ratio {ratio}");
    }

    #[test]
    fn cb_costs_three_db_of_subcarrier_snr() {
        let cfg20 = FrameConfig::baseline(ChannelWidth::Ht20);
        let cfg40 = FrameConfig::baseline(ChannelWidth::Ht40);
        let d = cfg20.snr_per_subcarrier_db() - cfg40.snr_per_subcarrier_db();
        // 10·log10((64/52)/(128/216)) = 3.17 dB.
        assert!(d > 2.9 && d < 3.4, "Δ = {d}");
    }

    #[test]
    fn with_target_snr_is_consistent() {
        for w in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
            let cfg = FrameConfig::baseline(w).with_target_snr(7.5);
            assert!((cfg.snr_per_subcarrier_db() - 7.5).abs() < 1e-9);
        }
    }

    #[test]
    fn monte_carlo_ber_matches_theory_awgn_qpsk() {
        // The Fig. 3a validation in miniature: uncoded QPSK BER at a fixed
        // per-subcarrier SNR should match Q(√γ) regardless of width.
        for w in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
            let snr = 8.0;
            let cfg = FrameConfig {
                packet_bytes: 500,
                equalization: Equalization::Genie,
                ..FrameConfig::baseline(w)
            }
            .with_target_snr(snr);
            let r = run_trial(&cfg, 30, 5);
            let theory = Modulation::Qpsk.ber_awgn(snr);
            let measured = r.ber();
            assert!(
                (measured / theory) > 0.7 && (measured / theory) < 1.4,
                "{w:?}: measured {measured:.2e} vs theory {theory:.2e}"
            );
        }
    }

    #[test]
    fn fixed_power_forty_mhz_has_higher_ber() {
        // Fig. 3b: same Tx → the wider channel has more bit errors.
        let p = 1.2;
        let mk = |w| FrameConfig {
            tx_power: p,
            noise_density: 0.18,
            packet_bytes: 400,
            ..FrameConfig::baseline(w)
        };
        let r20 = run_trial(&mk(ChannelWidth::Ht20), 25, 6);
        let r40 = run_trial(&mk(ChannelWidth::Ht40), 25, 6);
        assert!(
            r40.ber() > 1.5 * r20.ber(),
            "BER20 {:.3e}, BER40 {:.3e}",
            r20.ber(),
            r40.ber()
        );
    }

    #[test]
    fn preamble_sync_works_at_reasonable_snr() {
        let cfg = FrameConfig {
            sync: SyncMode::Preamble { threshold: 0.5 },
            packet_bytes: 120,
            ..FrameConfig::baseline(ChannelWidth::Ht20)
        }
        .with_target_snr(15.0);
        let r = run_trial(&cfg, 10, 7);
        assert_eq!(r.sync_failures, 0);
        assert_eq!(r.packet_errors, 0);
    }

    #[test]
    fn coded_frames_clean_up_moderate_noise() {
        // At an SNR where uncoded QPSK has BER ~1e-2, rate-1/2 coding
        // should deliver error-free packets.
        let uncoded = FrameConfig {
            packet_bytes: 300,
            equalization: Equalization::Genie,
            ..FrameConfig::baseline(ChannelWidth::Ht20)
        }
        .with_target_snr(7.0);
        let coded = FrameConfig {
            code_rate: Some(CodeRate::R12),
            ..uncoded
        };
        let ru = run_trial(&uncoded, 10, 8);
        let rc = run_trial(&coded, 10, 8);
        assert!(ru.bit_errors > 0, "uncoded should see errors");
        assert_eq!(
            rc.bit_errors, 0,
            "coded should be clean (got {})",
            rc.bit_errors
        );
    }

    #[test]
    fn constellation_spreads_with_cb_at_fixed_power() {
        // Fig. 2: at the same Tx, the 40 MHz constellation is noisier.
        let mk = |w| FrameConfig {
            tx_power: 2.0,
            noise_density: 0.1,
            packet_bytes: 200,
            ..FrameConfig::baseline(w)
        };
        let r20 = run_trial(&mk(ChannelWidth::Ht20), 4, 9);
        let r40 = run_trial(&mk(ChannelWidth::Ht40), 4, 9);
        assert!(
            r40.evm_rms > 1.2 * r20.evm_rms,
            "EVM20 {:.3}, EVM40 {:.3}",
            r20.evm_rms,
            r40.evm_rms
        );
    }

    #[test]
    fn stbc_outperforms_siso_on_fading_links() {
        let mk = |stbc| {
            FrameConfig {
                stbc,
                channel: ChannelModel::FlatRayleigh,
                packet_bytes: 200,
                ..FrameConfig::baseline(ChannelWidth::Ht20)
            }
            .with_target_snr(14.0)
        };
        let r_siso = run_trial(&mk(false), 60, 10);
        let r_stbc = run_trial(&mk(true), 60, 10);
        assert!(
            r_stbc.ber() < r_siso.ber(),
            "STBC {:.3e} !< SISO {:.3e}",
            r_stbc.ber(),
            r_siso.ber()
        );
    }

    #[test]
    fn constellation_sample_respects_the_exact_cap() {
        // 200-byte uncoded QPSK → 800 symbols/packet, sampled at 512 per
        // packet: 10 packets produce 5120 pre-decimation points, which
        // must come back as exactly 4096.
        let cfg = FrameConfig {
            packet_bytes: 200,
            ..FrameConfig::baseline(ChannelWidth::Ht20)
        };
        let r = run_trial(&cfg, 10, 77);
        assert_eq!(r.constellation.len(), CONSTELLATION_CAP);
        // Under the cap nothing is dropped: 4 packets → 2048 points.
        let r = run_trial(&cfg, 4, 77);
        assert_eq!(r.constellation.len(), 4 * 512);
    }

    #[test]
    fn exact_stride_is_deterministic_and_ordered() {
        let mk = |len: usize| -> Vec<Cplx> { (0..len).map(|i| Cplx::new(i as f64, 0.0)).collect() };
        for len in [4097usize, 5120, 8191, 12288, 100_000] {
            let mut v = mk(len);
            subsample_constellation(&mut v);
            assert_eq!(v.len(), CONSTELLATION_CAP, "len {len}");
            // Strictly increasing source indices → strictly increasing values.
            for w in v.windows(2) {
                assert!(w[1].re > w[0].re, "len {len}");
            }
            let mut v2 = mk(len);
            subsample_constellation(&mut v2);
            assert_eq!(v, v2);
        }
        let mut small = mk(4096);
        subsample_constellation(&mut small);
        assert_eq!(small.len(), 4096, "at or below the cap is untouched");
    }

    #[test]
    fn invalid_config_yields_typed_error() {
        let cfg = FrameConfig {
            gi: acorn_phy::GuardInterval::Short,
            channel: ChannelModel::SelectiveRayleigh {
                taps: 12,
                delay_spread_taps: 2.0,
            },
            ..FrameConfig::baseline(ChannelWidth::Ht20)
        };
        let err = cfg.validate().unwrap_err();
        assert_eq!(
            err,
            FrameError::ChannelMemoryExceedsCp { memory: 11, cp: 8 }
        );
        assert_eq!(
            err.to_string(),
            "channel memory (11) exceeds the cyclic prefix (8)"
        );
        assert!(try_run_trial(&cfg, 1, 1).is_err());
        // A sweep degrades gracefully: the bad config errors, the rest run.
        let good = FrameConfig::baseline(ChannelWidth::Ht20);
        let results = run_trials(&[good, cfg, good], 2, 3);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
    }

    #[test]
    fn parallel_trial_matches_sequential_fold() {
        let mut ws = FrameWorkspace::new();
        for cfg in [
            FrameConfig {
                packet_bytes: 120,
                ..FrameConfig::baseline(ChannelWidth::Ht20)
            },
            FrameConfig {
                packet_bytes: 100,
                code_rate: Some(CodeRate::R34),
                ..FrameConfig::baseline(ChannelWidth::Ht40)
            },
            FrameConfig {
                packet_bytes: 100,
                stbc: true,
                channel: ChannelModel::FlatRayleigh,
                ..FrameConfig::baseline(ChannelWidth::Ht20)
            },
        ] {
            // Chunk-boundary counts: 0, <1 chunk, exact, ragged.
            for n in [0usize, 3, 8, 19] {
                let seq = run_trial_with(&cfg, n, 42, &mut ws).unwrap();
                let par = try_run_trial(&cfg, n, 42).unwrap();
                assert_eq!(seq, par);
                assert_eq!(seq.evm_rms.to_bits(), par.evm_rms.to_bits());
                assert_eq!(
                    seq.measured_tx_power.to_bits(),
                    par.measured_tx_power.to_bits()
                );
            }
        }
    }

    #[test]
    fn sweep_reports_match_individual_trials() {
        let c20 = FrameConfig {
            packet_bytes: 100,
            ..FrameConfig::baseline(ChannelWidth::Ht20)
        };
        let c40 = FrameConfig {
            packet_bytes: 100,
            ..FrameConfig::baseline(ChannelWidth::Ht40)
        };
        let sweep = run_trials(&[c20, c40], 10, 9);
        for (i, cfg) in [c20, c40].iter().enumerate() {
            let solo = try_run_trial(cfg, 10, mix_seed(9, i as u64)).unwrap();
            assert_eq!(*sweep[i].as_ref().unwrap(), solo, "config {i}");
        }
    }

    #[test]
    fn workspace_reuse_across_configs_is_transparent() {
        // Alternating 20/40 MHz, coded/uncoded, SISO/STBC on one workspace
        // must give the same reports as fresh workspaces.
        let configs = [
            FrameConfig {
                packet_bytes: 90,
                ..FrameConfig::baseline(ChannelWidth::Ht20)
            },
            FrameConfig {
                packet_bytes: 90,
                code_rate: Some(CodeRate::R12),
                ..FrameConfig::baseline(ChannelWidth::Ht40)
            },
            FrameConfig {
                packet_bytes: 90,
                stbc: true,
                ..FrameConfig::baseline(ChannelWidth::Ht20)
            },
        ];
        let mut shared = FrameWorkspace::new();
        for round in 0..2 {
            for cfg in &configs {
                let reused = run_trial_with(cfg, 4, 5, &mut shared).unwrap();
                let fresh = run_trial_with(cfg, 4, 5, &mut FrameWorkspace::new()).unwrap();
                assert_eq!(reused, fresh, "round {round}");
            }
        }
    }
}

#[cfg(test)]
mod sgi_tests {
    use super::*;
    use acorn_phy::GuardInterval;

    #[test]
    fn short_gi_frames_roundtrip_cleanly() {
        for w in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
            let cfg = FrameConfig {
                gi: GuardInterval::Short,
                noise_density: 0.0,
                packet_bytes: 200,
                ..FrameConfig::baseline(w)
            };
            let r = run_trial(&cfg, 2, 51);
            assert_eq!(r.bit_errors, 0, "{w:?}");
        }
    }

    #[test]
    fn short_gi_shortens_the_prefix() {
        use crate::prefix::cp_len_for;
        assert_eq!(cp_len_for(64, GuardInterval::Long), 16);
        assert_eq!(cp_len_for(64, GuardInterval::Short), 8);
        assert_eq!(cp_len_for(128, GuardInterval::Short), 16);
    }

    #[test]
    fn short_gi_equalizes_channels_within_its_prefix() {
        // Delay spread must fit the *shorter* CP now.
        let cfg = FrameConfig {
            gi: GuardInterval::Short,
            noise_density: 0.0,
            packet_bytes: 150,
            channel: ChannelModel::SelectiveRayleigh {
                taps: 8, // memory 7 ≤ CP 8 at HT20-SGI
                delay_spread_taps: 2.0,
            },
            ..FrameConfig::baseline(ChannelWidth::Ht20)
        };
        let r = run_trial(&cfg, 2, 53);
        assert_eq!(r.bit_errors, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the cyclic prefix")]
    fn over_long_channels_are_rejected_under_sgi() {
        let cfg = FrameConfig {
            gi: GuardInterval::Short,
            channel: ChannelModel::SelectiveRayleigh {
                taps: 12, // memory 11 > CP 8
                delay_spread_taps: 2.0,
            },
            ..FrameConfig::baseline(ChannelWidth::Ht20)
        };
        run_trial(&cfg, 1, 1);
    }
}
