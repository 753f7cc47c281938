//! The simulation loop: a virtual clock, pluggable [`Process`] actors,
//! and an executed-event log.
//!
//! A [`Simulation`] owns three things: a *world* `W` (the shared mutable
//! state every actor operates on — for ACORN scenarios, the WLAN plus the
//! controller's [`NetworkState`](acorn_core::NetworkState)), a set of
//! boxed [`Process`]es addressed by [`ProcessId`], and the
//! [`EventQueue`](crate::queue::EventQueue). Each event is an
//! [`Envelope`] — a payload plus the process it is addressed to — and the
//! loop dispatches envelopes strictly in `(time, seq)` order, so a run is
//! a pure function of the initial world and the processes added to it.
//!
//! Determinism contract: processes may only read time, their own state,
//! the world, and the firing event's sequence number (exposed through
//! [`Ctx::event_seq`] precisely so randomized actors can derive per-event
//! seeds without carrying RNG state). Nothing in the loop consults wall
//! clocks, thread identity, or map iteration order.

use crate::queue::{EventId, EventQueue, Fired};
use crate::telemetry::Telemetry;

pub use acorn_core::par::mix_seed;

/// Identifies a process within one simulation (its registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub usize);

/// An event payload addressed to a process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope<E> {
    /// The process whose [`Process::handle`] runs when this fires.
    pub target: ProcessId,
    /// The payload.
    pub event: E,
}

/// One executed event, as recorded in the [`EventLog`].
///
/// Times are stored as raw bit patterns so the log is `Eq`/hashable and a
/// comparison between two runs is exact, not epsilon-based.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LogEntry {
    /// `f64::to_bits` of the firing time.
    pub time_bits: u64,
    /// The event's global sequence number.
    pub seq: u64,
    /// The process that handled it.
    pub target: usize,
    /// `Debug` rendering of the payload (deterministic for any derived
    /// `Debug`).
    pub kind: String,
}

/// The executed-event log: the exact dispatch order of a run. Two runs of
/// the same scenario are equivalent iff their logs are equal — this is
/// what the thread-count determinism tests compare.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventLog {
    /// Entries in dispatch order.
    pub entries: Vec<LogEntry>,
}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Events dispatched.
    pub events: u64,
    /// Virtual time of the last dispatched event (0 if none fired).
    pub end_time_s: f64,
}

/// A simulation actor. Implementations hold their own private state;
/// shared state lives in the world `W`.
pub trait Process<W, E> {
    /// Called once when the process is added to the simulation — schedule
    /// initial events here.
    fn start(&mut self, _ctx: &mut Ctx<'_, W, E>) {}

    /// Called for each event addressed to this process, in strict
    /// `(time, seq)` order.
    fn handle(&mut self, event: &E, ctx: &mut Ctx<'_, W, E>);
}

/// What a process sees while running: the world, the telemetry recorder,
/// the clock, and scheduling operations. Borrowed from the simulation for
/// the duration of one `start`/`handle` call.
pub struct Ctx<'a, W, E> {
    /// The shared world.
    pub world: &'a mut W,
    /// The telemetry recorder.
    pub telemetry: &'a mut Telemetry,
    queue: &'a mut EventQueue<Envelope<E>>,
    stopped: &'a mut bool,
    self_id: ProcessId,
    now: f64,
    seq: u64,
}

impl<W, E> Ctx<'_, W, E> {
    /// Current virtual time (s).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The firing event's global sequence number (during [`Process::start`],
    /// the sequence number the first scheduled event will get). Globally
    /// unique and identical across runs — the canonical input to
    /// [`mix_seed`] for per-event randomness.
    pub fn event_seq(&self) -> u64 {
        self.seq
    }

    /// The running process's own id.
    pub fn self_id(&self) -> ProcessId {
        self.self_id
    }

    /// Schedules `event` to this process at absolute time `t`.
    pub fn schedule_at(&mut self, t: f64, event: E) -> EventId {
        let target = self.self_id;
        self.send_at(t, target, event)
    }

    /// Schedules `event` to this process `dt` seconds from now.
    pub fn schedule_after(&mut self, dt: f64, event: E) -> EventId {
        self.schedule_at(self.now + dt, event)
    }

    /// Schedules `event` to another process at absolute time `t`.
    pub fn send_at(&mut self, t: f64, target: ProcessId, event: E) -> EventId {
        self.queue.schedule_at(t, Envelope { target, event })
    }

    /// Cancels a previously scheduled event; `true` if it was pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Stops the simulation after the current event completes; pending
    /// events stay in the queue undispatched.
    pub fn stop(&mut self) {
        *self.stopped = true;
    }
}

/// A deterministic discrete-event simulation over world `W` and event
/// payload `E`.
pub struct Simulation<W, E> {
    /// The shared world (public: scenario drivers read results from it
    /// after the run).
    pub world: W,
    /// The telemetry recorder.
    pub telemetry: Telemetry,
    queue: EventQueue<Envelope<E>>,
    processes: Vec<Option<Box<dyn Process<W, E>>>>,
    log: Option<EventLog>,
    stopped: bool,
    dispatched: u64,
}

impl<W, E: std::fmt::Debug> Simulation<W, E> {
    /// A simulation over `world` with the clock at 0 and no processes.
    pub fn new(world: W) -> Simulation<W, E> {
        Simulation {
            world,
            telemetry: Telemetry::new(),
            queue: EventQueue::new(),
            processes: Vec::new(),
            log: None,
            stopped: false,
            dispatched: 0,
        }
    }

    /// Enables (or disables) recording of every dispatched event into an
    /// [`EventLog`]. Off by default — logging allocates a `String` per
    /// event, which the determinism tests want and the benchmarks don't.
    pub fn record_events(&mut self, on: bool) {
        self.log = if on { Some(EventLog::default()) } else { None };
    }

    /// The executed-event log, if recording was enabled.
    pub fn event_log(&self) -> Option<&EventLog> {
        self.log.as_ref()
    }

    /// Current virtual time (s).
    pub fn now(&self) -> f64 {
        self.queue.now()
    }

    /// Adds a process and immediately runs its [`Process::start`] hook.
    /// Registration order is part of the scenario definition: it fixes
    /// the sequence numbers of initial events and therefore the dispatch
    /// order of simultaneous ones.
    pub fn add_process(&mut self, process: Box<dyn Process<W, E>>) -> ProcessId {
        let id = ProcessId(self.processes.len());
        self.processes.push(Some(process));
        let mut p = self.processes[id.0].take().expect("just pushed");
        let mut ctx = Ctx {
            world: &mut self.world,
            telemetry: &mut self.telemetry,
            now: self.queue.now(),
            seq: self.queue.next_seq(),
            queue: &mut self.queue,
            stopped: &mut self.stopped,
            self_id: id,
        };
        p.start(&mut ctx);
        self.processes[id.0] = Some(p);
        id
    }

    /// Dispatches events until the queue drains, the horizon passes, or a
    /// process calls [`Ctx::stop`]. Events scheduled *at* `horizon_s`
    /// still fire; later ones stay queued (a subsequent `run` call with a
    /// larger horizon resumes).
    pub fn run(&mut self, horizon_s: f64) -> RunStats {
        let mut end_time = self.queue.now();
        while !self.stopped {
            match self.queue.peek_time() {
                Some(t) if t <= horizon_s => {}
                _ => break,
            }
            let Fired { time, seq, event } = self.queue.pop().expect("peeked non-empty");
            let env: Envelope<E> = event;
            if let Some(log) = &mut self.log {
                log.entries.push(LogEntry {
                    time_bits: time.to_bits(),
                    seq,
                    target: env.target.0,
                    kind: format!("{:?}", env.event),
                });
            }
            let mut p = self.processes[env.target.0]
                .take()
                .unwrap_or_else(|| panic!("event for unknown process {:?}", env.target));
            let mut ctx = Ctx {
                world: &mut self.world,
                telemetry: &mut self.telemetry,
                now: time,
                seq,
                queue: &mut self.queue,
                stopped: &mut self.stopped,
                self_id: env.target,
            };
            p.handle(&env.event, &mut ctx);
            self.processes[env.target.0] = Some(p);
            self.dispatched += 1;
            end_time = time;
        }
        RunStats {
            events: self.dispatched,
            end_time_s: end_time,
        }
    }

    /// Runs until the queue is fully drained (or a process stops the
    /// simulation).
    pub fn run_to_completion(&mut self) -> RunStats {
        self.run(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ticker {
        period: f64,
        horizon: f64,
        fired: Vec<f64>,
    }

    impl Process<u64, &'static str> for Ticker {
        fn start(&mut self, ctx: &mut Ctx<'_, u64, &'static str>) {
            ctx.schedule_at(self.period, "tick");
        }
        fn handle(&mut self, _e: &&'static str, ctx: &mut Ctx<'_, u64, &'static str>) {
            self.fired.push(ctx.now());
            *ctx.world += 1;
            let next = ctx.now() + self.period;
            if next <= self.horizon {
                ctx.schedule_at(next, "tick");
            }
        }
    }

    #[test]
    fn periodic_process_fires_on_cadence() {
        let mut sim: Simulation<u64, &'static str> = Simulation::new(0);
        sim.add_process(Box::new(Ticker {
            period: 10.0,
            horizon: 45.0,
            fired: Vec::new(),
        }));
        let stats = sim.run_to_completion();
        assert_eq!(stats.events, 4); // t = 10, 20, 30, 40
        assert_eq!(stats.end_time_s, 40.0);
        assert_eq!(sim.world, 4);
    }

    #[test]
    fn horizon_pauses_and_resumes() {
        let mut sim: Simulation<u64, &'static str> = Simulation::new(0);
        sim.add_process(Box::new(Ticker {
            period: 10.0,
            horizon: 100.0,
            fired: Vec::new(),
        }));
        let a = sim.run(35.0);
        assert_eq!(a.events, 3);
        let b = sim.run(100.0);
        assert_eq!(b.events, 10);
        assert_eq!(sim.world, 10);
    }

    struct Stopper;
    impl Process<u64, &'static str> for Stopper {
        fn start(&mut self, ctx: &mut Ctx<'_, u64, &'static str>) {
            ctx.schedule_at(5.0, "stop");
        }
        fn handle(&mut self, _e: &&'static str, ctx: &mut Ctx<'_, u64, &'static str>) {
            ctx.stop();
        }
    }

    #[test]
    fn stop_halts_mid_queue() {
        let mut sim: Simulation<u64, &'static str> = Simulation::new(0);
        sim.add_process(Box::new(Stopper));
        sim.add_process(Box::new(Ticker {
            period: 10.0,
            horizon: 100.0,
            fired: Vec::new(),
        }));
        let stats = sim.run_to_completion();
        assert_eq!(stats.end_time_s, 5.0);
        assert_eq!(sim.world, 0, "ticker never ran");
    }

    #[test]
    fn event_log_captures_dispatch_order() {
        let mut sim: Simulation<u64, &'static str> = Simulation::new(0);
        sim.record_events(true);
        sim.add_process(Box::new(Ticker {
            period: 10.0,
            horizon: 25.0,
            fired: Vec::new(),
        }));
        sim.run_to_completion();
        let log = sim.event_log().unwrap();
        assert_eq!(log.entries.len(), 2);
        assert_eq!(log.entries[0].time_bits, 10.0f64.to_bits());
        assert_eq!(log.entries[0].kind, "\"tick\"");
        assert!(log.entries[0].seq < log.entries[1].seq);
    }

    /// Two processes messaging each other through `send_at`.
    struct PingPong {
        peer: Option<ProcessId>,
        count: u32,
    }
    impl Process<Vec<&'static str>, &'static str> for PingPong {
        fn start(&mut self, ctx: &mut Ctx<'_, Vec<&'static str>, &'static str>) {
            if self.peer.is_none() {
                // First process serves once the second one exists.
                ctx.schedule_at(1.0, "serve");
            }
        }
        fn handle(&mut self, e: &&'static str, ctx: &mut Ctx<'_, Vec<&'static str>, &'static str>) {
            ctx.world.push(*e);
            self.count += 1;
            if self.count < 3 {
                if let Some(peer) = self.peer {
                    ctx.send_at(ctx.now() + 1.0, peer, "pong");
                } else {
                    // id 0's peer is always id 1 in this test.
                    ctx.send_at(ctx.now() + 1.0, ProcessId(1), "ping");
                }
            }
        }
    }

    #[test]
    fn processes_exchange_events() {
        let mut sim: Simulation<Vec<&'static str>, &'static str> = Simulation::new(Vec::new());
        sim.add_process(Box::new(PingPong {
            peer: None,
            count: 0,
        }));
        sim.add_process(Box::new(PingPong {
            peer: Some(ProcessId(0)),
            count: 0,
        }));
        sim.run_to_completion();
        assert_eq!(sim.world, vec!["serve", "ping", "pong", "ping", "pong"]);
    }

    #[test]
    fn cancellation_via_ctx() {
        struct Canceller {
            victim: Option<EventId>,
        }
        impl Process<u32, &'static str> for Canceller {
            fn start(&mut self, ctx: &mut Ctx<'_, u32, &'static str>) {
                ctx.schedule_at(1.0, "first");
                self.victim = Some(ctx.schedule_at(2.0, "doomed"));
            }
            fn handle(&mut self, e: &&'static str, ctx: &mut Ctx<'_, u32, &'static str>) {
                if *e == "first" {
                    let id = self.victim.take().unwrap();
                    assert!(ctx.cancel(id));
                } else {
                    *ctx.world += 1;
                }
            }
        }
        let mut sim: Simulation<u32, &'static str> = Simulation::new(0);
        sim.add_process(Box::new(Canceller { victim: None }));
        sim.run_to_completion();
        assert_eq!(sim.world, 0, "cancelled event must not fire");
    }
}
