//! SLO-aware admission: a windowed queue-delay tracker per queue.
//!
//! The pool's workers record each drained request's **queue delay**
//! (enqueue → drain, i.e. the latency the request accumulated before any
//! scoring happened), counting the delays above the SLO as they go. At
//! admission time the controller sheds *before* the hard queue cap when
//! the recent window's exact p99 exceeds the SLO — a request that would
//! sit past its SLO in the queue is cheaper to reject now, with a
//! back-off hint, than to score late. The window's delays also land in
//! a [`mgbr_obs::GeoHistogram`], whose power-of-two p99 bucket bound
//! sizes the back-off hint only, never the shed decision.
//!
//! The window rotates every [`WINDOW_BATCHES`] drained batches **or**
//! once it is older than [`WINDOW_MAX_AGE`], whichever comes first, so a
//! transient overload stops shedding once the backlog clears. The age
//! bound matters for liveness: while the controller sheds everything,
//! nothing is admitted, so nothing drains and the batch counter never
//! advances — without a wall-clock rotation the stale high p99 would
//! pin the pool in the shed state forever. A minimum sample count keeps
//! a cold (or freshly rotated) tracker from shedding on noise.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use mgbr_obs::GeoHistogram;

use crate::batcher::lock;

/// Batches per observation window; the histogram resets on rotation so
/// shedding decisions track *recent* queue health, not all-time history.
const WINDOW_BATCHES: u64 = 64;

/// Minimum samples in the current window before the controller is
/// allowed to shed — a cold or freshly rotated tracker admits everything.
const MIN_SAMPLES: u64 = 32;

/// Upper bound on a window's wall-clock age. A window that has seen no
/// rotation for this long is stale — most importantly the full-shed
/// state, where zero admissions mean zero drained batches — and is
/// cleared so admission resumes and the tracker can re-observe real
/// queue delay. Bounds the worst-case shed-everything episode after a
/// transient overload to roughly this duration.
const WINDOW_MAX_AGE: Duration = Duration::from_millis(250);

struct DelayWindow {
    hist: GeoHistogram,
    /// Delays in this window strictly above the SLO.
    over: u64,
    batches: u64,
    /// When this window started (last rotation), against the same
    /// monotonic clock the callers pass in.
    started: Instant,
}

impl DelayWindow {
    fn rotate(&mut self, now: Instant) {
        self.hist.clear();
        self.over = 0;
        self.batches = 0;
        self.started = now;
    }

    fn rotate_if_stale(&mut self, now: Instant, max_age: Duration) {
        if now.saturating_duration_since(self.started) >= max_age {
            self.rotate(now);
        }
    }
}

/// Windowed queue-delay tracker feeding SLO-aware early shedding. One
/// per queue (pool-wide under shared admission, per partition under hash
/// partitioning, matching the shed-count indexing), built only when the
/// pool has an SLO.
///
/// Callers pass in `now` (the admission / batch timestamp they already
/// took) so the tracker itself never reads the clock — the batch hot
/// loop keeps its one-timestamp-per-batch discipline.
pub(crate) struct DelayTracker {
    inner: Mutex<DelayWindow>,
    slo_us: u64,
    max_age: Duration,
}

impl DelayTracker {
    /// A tracker judging queue delays against `slo_us`.
    pub(crate) fn new(slo_us: u64) -> Self {
        Self::with_max_age(slo_us, WINDOW_MAX_AGE)
    }

    /// Tracker with a custom staleness bound (tests shrink it so stale
    /// rotation is observable without sleeping for the production bound).
    pub(crate) fn with_max_age(slo_us: u64, max_age: Duration) -> Self {
        Self {
            inner: Mutex::new(DelayWindow {
                hist: GeoHistogram::new(),
                over: 0,
                batches: 0,
                started: Instant::now(),
            }),
            slo_us,
            max_age,
        }
    }

    /// Worker-side: folds one drained batch's queue delays (µs) into the
    /// current window, rotating (clearing) the window every
    /// [`WINDOW_BATCHES`] batches. A window stale past the age bound is
    /// rotated *first* so ancient samples never mix with fresh ones.
    /// `now` is the batch timestamp the worker already took.
    pub(crate) fn record_batch<I: IntoIterator<Item = u64>>(&self, now: Instant, delays_us: I) {
        let mut w = lock(&self.inner);
        w.rotate_if_stale(now, self.max_age);
        for d in delays_us {
            w.hist.record(d);
            w.over += u64::from(d > self.slo_us);
        }
        w.batches += 1;
        if w.batches >= WINDOW_BATCHES {
            w.rotate(now);
        }
    }

    /// Admission-side: `Some(retry_after_hint_us)` when the current
    /// window's exact p99 queue delay exceeds the SLO, `None` to admit.
    /// With `n` delays in the window the p99 is the `⌈0.99·n⌉`-th
    /// smallest, so it exceeds the SLO exactly when more than
    /// `n − ⌈0.99·n⌉` delays do. The hint is the window's p99 bucket
    /// bound minus the SLO, at least 1 µs. A window with fewer than
    /// [`MIN_SAMPLES`] samples never sheds. A window stale past the age
    /// bound is rotated to cold here — this is the liveness path: while
    /// the controller sheds 100%, no batches drain, so *this* call is
    /// the only place the stale window can be retired. `now` is the
    /// admission timestamp the pool already took.
    pub(crate) fn shed_hint_us(&self, now: Instant) -> Option<u64> {
        let mut w = lock(&self.inner);
        w.rotate_if_stale(now, self.max_age);
        let n = w.hist.count();
        if n < MIN_SAMPLES || w.over <= n - (n * 99).div_ceil(100) {
            return None;
        }
        Some(w.hist.percentile(0.99).saturating_sub(self.slo_us).max(1))
    }
}

/// Requests per chunk × chunks = the short burn window (~256 requests).
const BURN_SHORT_CHUNK: u64 = 16;

/// Requests per chunk × chunks = the long burn window (~4096 requests).
const BURN_LONG_CHUNK: u64 = 256;

/// Chunks per burn window (the window slides with chunk granularity).
const BURN_CHUNKS: usize = 16;

/// The error budget the burn rate is normalized against: 1% of requests
/// may fail (shed / expired / canceled) before the budget is spent.
/// `burn = 1.0` means errors are arriving exactly at budget; `burn =
/// 10.0` means the budget is burning 10× too fast. The classic
/// short+long pairing makes page-worthy burn distinguishable from a
/// blip: a short-window spike that the long window never confirms is
/// transient.
const ERROR_BUDGET: f64 = 0.01;

/// One rolling request window, counted in requests (not wall-clock):
/// `BURN_CHUNKS` chunks of `chunk_cap` requests each; the oldest chunk
/// is dropped when the newest fills. Request-counted windows keep the
/// tracker clock-free — the batch hot loop's two-clock-read budget and
/// the determinism contract both stay intact.
struct BurnWindow {
    chunks: [(u64, u64); BURN_CHUNKS], // (total, bad) per chunk
    cur: usize,
    chunk_cap: u64,
}

impl BurnWindow {
    fn new(chunk_cap: u64) -> Self {
        Self {
            chunks: [(0, 0); BURN_CHUNKS],
            cur: 0,
            chunk_cap,
        }
    }

    fn record(&mut self, total: u64, bad: u64) {
        let c = &mut self.chunks[self.cur];
        c.0 += total;
        c.1 += bad;
        while self.chunks[self.cur].0 >= self.chunk_cap {
            // Rotate: the next slot becomes the live chunk, its ancient
            // contents forgotten. A batch larger than a whole chunk
            // rotates once (the surplus stays in the retired chunk and
            // ages out normally).
            self.cur = (self.cur + 1) % BURN_CHUNKS;
            self.chunks[self.cur] = (0, 0);
        }
    }

    fn burn(&self) -> f64 {
        let (total, bad) = self
            .chunks
            .iter()
            .fold((0u64, 0u64), |(t, b), &(ct, cb)| (t + ct, b + cb));
        if total == 0 {
            0.0
        } else {
            (bad as f64 / total as f64) / ERROR_BUDGET
        }
    }
}

/// SLO burn-rate tracker: the rolling bad-request ratio over a short
/// (~256-request) and a long (~4096-request) window, normalized by the
/// [`ERROR_BUDGET`]. "Bad" is every answered-without-a-score outcome the
/// pool itself caused or refused: shed (cap or SLO), deadline-expired,
/// and canceled/fallback-failed requests. Client errors (`BadRequest`)
/// spend no budget.
///
/// Shared between the pool's admission path (sheds) and its workers
/// (batch outcomes); updates are one short lock per batch or shed, with
/// no clock reads. Exposed through [`crate::ServeMetrics`]
/// (`burn_rate_short` / `burn_rate_long`) and, when tracing is on, the
/// `serve.slo.burn_rate` gauge (×1000, short window).
pub(crate) struct BurnRate {
    inner: Mutex<(BurnWindow, BurnWindow)>,
}

impl BurnRate {
    pub(crate) fn new() -> Self {
        Self {
            inner: Mutex::new((
                BurnWindow::new(BURN_SHORT_CHUNK),
                BurnWindow::new(BURN_LONG_CHUNK),
            )),
        }
    }

    /// Folds `total` finished requests, `bad` of which spent error
    /// budget, into both windows.
    pub(crate) fn record(&self, total: u64, bad: u64) {
        if total == 0 {
            return;
        }
        let mut w = lock(&self.inner);
        w.0.record(total, bad);
        w.1.record(total, bad);
    }

    /// `(short, long)` burn rates (error rate ÷ budget; 0 when no
    /// requests observed).
    pub(crate) fn rates(&self) -> (f64, f64) {
        let w = lock(&self.inner);
        (w.0.burn(), w.1.burn())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SLO of the unit tests, in µs.
    const SLO: u64 = 5_000;

    #[test]
    fn cold_tracker_never_sheds() {
        let t = DelayTracker::new(SLO);
        let now = Instant::now();
        assert_eq!(t.shed_hint_us(now), None);
        t.record_batch(now, (0..MIN_SAMPLES - 1).map(|_| 1_000_000));
        assert_eq!(t.shed_hint_us(now), None, "below the sample floor");
        t.record_batch(now, [1_000_000]);
        assert!(t.shed_hint_us(now).unwrap() >= 1_000_000 - SLO);
    }

    /// The shed decision follows the window's exact p99, not its bucket
    /// bound: 6000 µs shares the 4096–8191 µs bucket with 4200 µs, so a
    /// bucket p99 reads above a 5000 µs SLO in both windows below.
    #[test]
    fn exact_p99_decides_the_shed() {
        let now = Instant::now();
        let t = DelayTracker::new(SLO);
        t.record_batch(now, (0..99).map(|_| 4_200).chain([6_000]));
        assert_eq!(t.shed_hint_us(now), None, "true p99 is 4200 µs");
        let t = DelayTracker::new(SLO);
        t.record_batch(now, (0..98).map(|_| 4_200).chain([6_000, 6_000]));
        assert_eq!(t.shed_hint_us(now), Some(1_000), "true p99 is 6000 µs");
    }

    #[test]
    fn window_rotation_forgets_old_overload() {
        let t = DelayTracker::new(SLO);
        let now = Instant::now();
        t.record_batch(now, (0..MIN_SAMPLES).map(|_| 50_000));
        assert!(t.shed_hint_us(now).is_some());
        // Drain enough healthy batches to rotate the window: the old
        // spike must be forgotten and the tracker goes cold again.
        for _ in 0..WINDOW_BATCHES {
            t.record_batch(now, [10]);
        }
        // After rotation the window restarted; with fewer than
        // MIN_SAMPLES fresh samples the tracker abstains.
        for _ in 0..WINDOW_BATCHES {
            t.record_batch(now, std::iter::empty());
        }
        assert_eq!(t.shed_hint_us(now), None, "rotation cleared the window");
    }

    /// Liveness regression: in the full-shed state no batches drain, so
    /// batch-count rotation never fires. The wall-clock bound must retire
    /// the stale window from the *admission* path alone, with zero
    /// intervening `record_batch` calls, or a transient overload becomes
    /// a permanent outage.
    #[test]
    fn stale_window_goes_cold_without_drained_batches() {
        let max_age = Duration::from_millis(10);
        let t = DelayTracker::with_max_age(SLO, max_age);
        let t0 = Instant::now();
        t.record_batch(t0, (0..MIN_SAMPLES).map(|_| 1_000_000));
        assert!(
            t.shed_hint_us(t0).is_some(),
            "fresh overloaded window sheds as before"
        );
        // No drains happen (everything is being shed). Once the window
        // ages past the bound, admission-side reads must rotate it cold.
        let later = t0 + max_age;
        assert_eq!(
            t.shed_hint_us(later),
            None,
            "stale window must rotate cold from shed_hint_us alone"
        );
        // And it stays cold on re-read (rotation reset the clock too).
        assert_eq!(t.shed_hint_us(later), None);
    }

    #[test]
    fn burn_rate_is_zero_when_healthy_and_budget_normalized() {
        let b = BurnRate::new();
        assert_eq!(b.rates(), (0.0, 0.0), "no traffic, no burn");
        b.record(100, 0);
        assert_eq!(b.rates(), (0.0, 0.0), "all-good traffic, no burn");
        // 1% bad == exactly at budget == burn 1.0 (both windows see the
        // same stream while it fits).
        let b = BurnRate::new();
        b.record(99, 0);
        b.record(1, 1);
        let (short, long) = b.rates();
        assert!((short - 1.0).abs() < 1e-9, "short burn {short}");
        assert!((long - 1.0).abs() < 1e-9, "long burn {long}");
    }

    #[test]
    fn short_window_forgets_a_spike_the_long_window_remembers() {
        let b = BurnRate::new();
        // A burst of pure failures...
        b.record(64, 64);
        let (spike_short, spike_long) = b.rates();
        assert!(spike_short > 50.0, "spike visible short: {spike_short}");
        assert!(spike_long > 50.0, "spike visible long: {spike_long}");
        // ...then sustained healthy traffic that overflows the short
        // window (16 chunks × 16 requests) but not the long one.
        for _ in 0..64 {
            b.record(16, 0);
        }
        let (short, long) = b.rates();
        assert_eq!(short, 0.0, "short window fully rotated past the spike");
        assert!(long > 0.0, "long window still remembers the spike: {long}");
    }

    #[test]
    fn oversized_batches_rotate_once_not_forever() {
        let b = BurnRate::new();
        // One batch bigger than an entire short chunk must not wedge the
        // rotation logic or divide by zero.
        b.record(10_000, 5_000);
        let (short, _) = b.rates();
        assert!(short.is_finite());
    }

    /// A worker draining into a stale window rotates it first, so
    /// ancient overload samples never mix with the fresh batch.
    #[test]
    fn record_into_stale_window_drops_ancient_samples() {
        let max_age = Duration::from_millis(10);
        let t = DelayTracker::with_max_age(SLO, max_age);
        let t0 = Instant::now();
        t.record_batch(t0, (0..MIN_SAMPLES).map(|_| 1_000_000));
        let later = t0 + max_age;
        t.record_batch(later, (0..4u64).map(|_| 10));
        assert_eq!(
            t.shed_hint_us(later),
            None,
            "only the 4 fresh samples remain — below the shed floor"
        );
    }
}
