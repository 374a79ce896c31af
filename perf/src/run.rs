//! The closed-loop driver and the repetition protocol.
//!
//! Load model: a closed loop. Each client is an in-process thread that
//! issues its next request only when the previous call returned; the
//! generator threads are the clients, there are no others. One client
//! runs on the calling thread.
//!
//! A run is one discarded warm-up repetition followed by measured
//! repetitions, each on a freshly built system with the same seed and the
//! same op count, until `--seconds` of measured time have passed (at
//! least [`MIN_REPS`]). Every end-to-end metric is the median over the
//! measured repetitions.
//!
//! A one-client workload runs pinned to one CPU (see [`Pinned`]) and its
//! times are corrected for that CPU's speed (see [`run`]).

use crate::clock::{host_probe_ms, now_ns, peak_rss_mb, process_cpu_ns, Pinned, HOST_REFERENCE_MS};
use crate::hist::{median, rep_iqr, rep_spread, Hist};
use crate::trace::{Scope, Tracer};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Barrier;

/// Fewest measured repetitions of a full run.
pub const MIN_REPS: usize = 3;

/// What the measured phase of one repetition cost.
pub struct Measured {
    /// First client start to last client end.
    pub wall_ns: u64,
    /// Process CPU time (user + system, all threads) over the same phase.
    pub cpu_ns: u64,
    /// Per-op latencies of all clients.
    pub hist: Hist,
    /// Ops whose closure reported failure.
    pub failed: u64,
    /// The clients' spans, when traced.
    pub tracer: Option<Tracer>,
}

/// Run the ops with indices in `ops` on `clients` closed-loop clients,
/// client `c` taking the `c`-th contiguous share. `op(k, scope)` performs
/// op `k` and returns whether it succeeded; when `traced`, each op gets a
/// root span `span` and `scope` records its children.
pub fn drive<F>(
    clients: usize,
    ops: Range<usize>,
    span: &'static str,
    traced: bool,
    op: F,
) -> Measured
where
    F: Fn(usize, &mut Scope<'_>) -> bool + Sync,
{
    struct Client {
        start_ns: u64,
        end_ns: u64,
        hist: Hist,
        failed: u64,
        tracer: Option<Tracer>,
    }
    let client = |c: usize, ready: Option<&Barrier>| -> Client {
        let share = |c: usize| ops.start + c * ops.len() / clients;
        let range = share(c)..share(c + 1);
        let mut hist = Hist::default();
        let mut tracer = traced.then(Tracer::default);
        let mut failed = 0;
        if let Some(b) = ready {
            b.wait();
        }
        let start_ns = now_ns();
        let mut prev = start_ns;
        for k in range {
            let ok = match tracer.as_mut() {
                Some(t) => {
                    let open = t.begin(span, 0, k as u32);
                    let ok = op(k, &mut Scope::under(t, open.id(), k as u32));
                    t.end(open);
                    ok
                }
                None => op(k, &mut Scope::off()),
            };
            let t = now_ns();
            hist.record(t - prev);
            prev = t;
            failed += u64::from(!ok);
        }
        Client { start_ns, end_ns: prev, hist, failed, tracer }
    };

    let cpu0 = process_cpu_ns();
    let done: Vec<Client> = if clients == 1 {
        vec![client(0, None)]
    } else {
        let ready = Barrier::new(clients);
        std::thread::scope(|s| {
            let (ready, client) = (&ready, &client);
            let handles: Vec<_> =
                (0..clients).map(|c| s.spawn(move || client(c, Some(ready)))).collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        })
    };
    let cpu_ns = process_cpu_ns() - cpu0;

    let mut out = Measured {
        wall_ns: done.iter().map(|c| c.end_ns).max().expect("a client")
            - done.iter().map(|c| c.start_ns).min().expect("a client"),
        cpu_ns,
        hist: Hist::default(),
        failed: 0,
        tracer: traced.then(Tracer::default),
    };
    for c in done {
        out.hist.merge(&c.hist);
        out.failed += c.failed;
        if let (Some(all), Some(t)) = (out.tracer.as_mut(), c.tracer) {
            all.absorb(t);
        }
    }
    out
}

/// One repetition of a workload: set-up time, the measured phase, and
/// what the post-run audits found.
pub struct Rep {
    /// Build/verify policies, start the system, load data, generate inputs.
    pub setup_s: f64,
    /// The measured phase.
    pub measured: Measured,
    /// Ops attempted in the measured phase.
    pub ops: u64,
    /// Post-run audit failures, one line each (each counts as a failed op).
    pub audit_failures: Vec<String>,
    /// Digest of the committed state; equal across repetitions on
    /// one-client workloads.
    pub digest: Option<u64>,
    /// Counts read off the system after the repetition (lock waits, abort
    /// classes, log lengths), for the per-layer table.
    pub counters: BTreeMap<&'static str, f64>,
}

/// A workload: builds a fresh system and runs one repetition on it.
pub trait Workload {
    /// Client threads (1 or 2).
    fn clients(&self) -> usize;
    /// One repetition; `traced` records spans into `Rep::measured.tracer`.
    fn rep(&mut self, traced: bool) -> Rep;
    /// Audits run once after the last repetition, outside every timed or
    /// memory-sampled phase; returns failure lines.
    fn finish(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// The end-to-end metrics, in reporting order, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Aggregated result of a run of one workload.
pub struct RunResult {
    /// Median over repetitions per end-to-end metric (`peak_rss_mb` is the
    /// process's VmHWM at the end of the measured repetitions).
    pub metrics: BTreeMap<&'static str, f64>,
    /// `(max − min) / median` over repetitions per end-to-end metric.
    pub rep_spread: BTreeMap<&'static str, f64>,
    /// `(Q3 − Q1) / median` over repetitions per end-to-end metric.
    pub rep_iqr: BTreeMap<&'static str, f64>,
    /// Median over repetitions of the uncorrected values (equal to
    /// `metrics` on two-client workloads).
    pub raw: BTreeMap<&'static str, f64>,
    /// The value of every repetition, per metric that has one, and the
    /// repetitions' `host_slowdown`.
    pub per_rep: BTreeMap<&'static str, Vec<f64>>,
    /// Percentile `op_p99_us` was read at (below 99 for small samples).
    pub tail_pct: f64,
    /// Measured repetitions.
    pub reps: usize,
    /// Ops attempted over the measured repetitions.
    pub attempted: u64,
    /// Failed ops plus failed audits over the measured repetitions.
    pub failed: u64,
    /// Every audit failure line.
    pub failures: Vec<String>,
    /// Counters of the last measured repetition.
    pub counters: BTreeMap<&'static str, f64>,
    /// Wall time of the measured phases, summed.
    pub measured_s: f64,
}

/// The per-repetition metrics, uncorrected, in [`END_TO_END`] order
/// without `peak_rss_mb`: one rate, then four times.
fn rep_values(rep: &Rep) -> [f64; 5] {
    let m = &rep.measured;
    let (_, tail) = m.hist.tail();
    [
        rep.ops as f64 / (m.wall_ns as f64 / 1e9),
        m.hist.quantile(0.5) / 1e3,
        tail / 1e3,
        m.cpu_ns as f64 / 1e3 / rep.ops as f64,
        rep.setup_s,
    ]
}

/// Fold measured repetitions into a [`RunResult`]. `slowdowns[i]` is how
/// much slower than its reference speed the CPU was during repetition `i`
/// (1 for no correction): times are divided by it and the rate multiplied.
/// One-client workloads must reproduce the same committed state on every
/// repetition.
pub fn aggregate(reps: &[Rep], slowdowns: &[f64], clients: usize, rss_mb: f64) -> RunResult {
    let names = END_TO_END.iter().map(|m| m.0).filter(|m| *m != "peak_rss_mb");
    let mut raw = BTreeMap::from([("peak_rss_mb", rss_mb)]);
    let mut columns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let values: Vec<[f64; 5]> = reps.iter().map(rep_values).collect();
    for (i, name) in names.enumerate() {
        let uncorrected: Vec<f64> = values.iter().map(|v| v[i]).collect();
        let corrected =
            uncorrected.iter().zip(slowdowns).map(|(v, s)| if i == 0 { v * s } else { v / s });
        columns.insert(name, corrected.collect());
        raw.insert(name, median(&uncorrected));
    }
    let mut metrics: BTreeMap<&'static str, f64> =
        columns.iter().map(|(name, column)| (*name, median(column))).collect();
    let mut spread: BTreeMap<&'static str, f64> =
        columns.iter().map(|(name, column)| (*name, rep_spread(column))).collect();
    let mut iqr: BTreeMap<&'static str, f64> =
        columns.iter().map(|(name, column)| (*name, rep_iqr(column))).collect();
    metrics.insert("peak_rss_mb", rss_mb);
    spread.insert("peak_rss_mb", 0.0);
    iqr.insert("peak_rss_mb", 0.0);
    columns.insert("host_slowdown", slowdowns.to_vec());

    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.audit_failures.clone()).collect();
    if clients == 1 {
        let digests: Vec<Option<u64>> = reps.iter().map(|r| r.digest).collect();
        if digests.windows(2).any(|w| w[0] != w[1]) {
            failures.push(format!("committed state differs between repetitions: {digests:x?}"));
        }
    }
    let op_failures: u64 = reps.iter().map(|r| r.measured.failed).sum();
    RunResult {
        metrics,
        rep_spread: spread,
        rep_iqr: iqr,
        raw,
        per_rep: columns,
        tail_pct: reps.last().map_or(0.0, |r| r.measured.hist.tail().0),
        reps: reps.len(),
        attempted: reps.iter().map(|r| r.ops).sum(),
        failed: op_failures + failures.len() as u64,
        failures,
        counters: reps.last().map(|r| r.counters.clone()).unwrap_or_default(),
        measured_s: reps.iter().map(|r| r.measured.wall_ns as f64 / 1e9).sum(),
    }
}

/// Run the repetition protocol on `w`: a discarded warm-up (unless
/// `quick`), then measured repetitions until `seconds` have been measured
/// (one repetition when `quick`), then the end-of-run audits.
///
/// **Host-speed correction.** This host's CPUs run in a fast or a slow
/// state about 1.27× apart (a fixed compute kernel takes 6.4 or 8.1 ms)
/// and stay in one for seconds to tens of minutes, so two runs of the same
/// code can differ by more than any bound a regression gate could use. A
/// one-client workload is pure CPU work on one pinned CPU, so its
/// repetitions are bracketed by [`host_probe_ms`] on that CPU and reported
/// at the reference speed: with `slowdown` = mean of the two readings ÷
/// [`HOST_REFERENCE_MS`], times are divided by it and `ops_per_s` multiplied.
/// The uncorrected medians are kept as [`RunResult::raw`]. Two-client
/// workloads wait for locks and sleep in backoff, which no CPU-speed
/// factor describes (`bank_hot`'s p99 is a timer sleep), and run on both
/// CPUs; they are reported as measured.
pub fn run(w: &mut dyn Workload, seconds: f64, quick: bool) -> RunResult {
    let one_client = w.clients() == 1;
    let _one_cpu = one_client.then(Pinned::one_cpu);
    if !quick {
        w.rep(false);
    }
    let probe = || if one_client { host_probe_ms() / HOST_REFERENCE_MS } else { 1.0 };
    let mut reps = Vec::new();
    let mut slowdowns = Vec::new();
    let mut measured_ns = 0u64;
    let mut before = probe();
    loop {
        let rep = w.rep(false);
        let after = probe();
        slowdowns.push((before + after) / 2.0);
        before = after;
        measured_ns += rep.measured.wall_ns;
        reps.push(rep);
        if quick || (reps.len() >= MIN_REPS && measured_ns as f64 >= seconds * 1e9) {
            break;
        }
    }
    let rss_mb = peak_rss_mb();
    let mut result = aggregate(&reps, &slowdowns, w.clients(), rss_mb);
    let late = w.finish();
    result.failed += late.len() as u64;
    result.failures.extend(late);
    result
}
