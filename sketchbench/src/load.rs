//! Wire load generators: an open-loop sender at a fixed frame rate and a
//! closed-loop sender at a fixed pipeline depth, each over one connection.

use crate::trace::Tracer;
use serve::net::{SketchClient, WireQuery, WireReply};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What one connection's load produced.
#[derive(Debug, Default)]
pub struct Load {
    /// Open loop only: per frame, µs from its due time to its replies.
    pub latencies_us: Vec<f64>,
    /// Open loop only: per frame, seconds from the load's start to the
    /// frame's due time — for windowed statistics.
    pub at_s: Vec<f64>,
    /// Open loop only: per frame, µs the send ran behind schedule.
    pub late_us: Vec<f64>,
    /// Queries sent.
    pub attempted: u64,
    /// Queries that failed: non-estimate replies and queries of frames
    /// lost to a connection error.
    pub failed: u64,
    /// Wrong answers found by the reply check.
    pub errors: Vec<String>,
}

impl Load {
    fn settle(
        &mut self,
        frame: u64,
        queries: usize,
        result: Result<Vec<WireReply>, serve::net::WireError>,
        check: &mut impl FnMut(u64, &[WireReply]) -> Result<u64, String>,
        client: &mut SketchClient,
    ) {
        self.attempted += queries as u64;
        match result {
            Ok(replies) => match check(frame, &replies) {
                Ok(failed) => self.failed += failed,
                Err(e) => {
                    if self.errors.len() < 10 {
                        self.errors.push(e);
                    }
                }
            },
            Err(_) => {
                self.failed += queries as u64;
                let _ = client.reconnect();
            }
        }
    }
}

/// Sends one frame every `1/hz` seconds until `stop` is set, each frame
/// built by `frame(i)`, and checks each frame's replies with `check`
/// (returning the number of failed replies, or a wrong-answer error).
/// Latency is measured from the frame's due time, so a stall also counts
/// against the frames that were due while it lasted.
pub fn open_loop(
    addr: SocketAddr,
    hz: f64,
    stop: &AtomicBool,
    tracer: &Tracer,
    mut frame: impl FnMut(u64) -> Vec<WireQuery>,
    mut check: impl FnMut(u64, &[WireReply]) -> Result<u64, String>,
) -> Load {
    let mut load = Load::default();
    let mut client = match SketchClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            load.attempted = 1;
            load.failed = 1;
            load.errors.push(format!("open loop cannot connect: {e}"));
            return load;
        }
    };
    let start = Instant::now() + Duration::from_millis(1);
    for i in 0u64.. {
        let due = start + Duration::from_secs_f64(i as f64 / hz);
        crate::stats::wait_until(due);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        load.late_us.push(due.elapsed().as_secs_f64() * 1e6);
        load.at_s.push((due - start).as_secs_f64());
        let queries = frame(i);
        let result = tracer.time("serve.net.roundtrip", 0, i, || {
            client.submit(&queries).and_then(|t| client.collect(t))
        });
        load.latencies_us.push(due.elapsed().as_secs_f64() * 1e6);
        load.settle(i, queries.len(), result, &mut check, &mut client);
    }
    load
}

/// Keeps `depth` frames in flight until `end`, then drains. Frame ids
/// start at `first` so concurrent connections can cycle different offsets
/// of the same query set.
pub fn closed_loop(
    addr: SocketAddr,
    depth: usize,
    end: Instant,
    first: u64,
    tracer: &Tracer,
    mut frame: impl FnMut(u64) -> Vec<WireQuery>,
    mut check: impl FnMut(u64, &[WireReply]) -> Result<u64, String>,
) -> Load {
    let mut load = Load::default();
    let mut client = match SketchClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            load.attempted = 1;
            load.failed = 1;
            load.errors.push(format!("closed loop cannot connect: {e}"));
            return load;
        }
    };
    let mut window = VecDeque::with_capacity(depth);
    let mut next = first;
    loop {
        while window.len() < depth && Instant::now() < end {
            let queries = frame(next);
            match client.submit(&queries) {
                Ok(ticket) => window.push_back((ticket, next, queries.len())),
                Err(e) => load.settle(next, queries.len(), Err(e), &mut check, &mut client),
            }
            next += 1;
        }
        let Some((ticket, id, queries)) = window.pop_front() else {
            break;
        };
        let result = tracer.time("serve.net.collect", 0, id, || client.collect(ticket));
        if result.is_err() {
            // The connection was reset: every frame still in flight is
            // lost with it.
            for (_, _, lost) in window.drain(..) {
                load.attempted += lost as u64;
                load.failed += lost as u64;
            }
        }
        load.settle(id, queries, result, &mut check, &mut client);
    }
    load
}
