//! Sample summaries, the metric table a run reports, and process memory.

/// A bag of measurements, summarised by nearest-rank quantiles.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`; `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in report order; names are unique.
#[derive(Debug, Default)]
pub struct Table(Vec<Metric>);

impl Table {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => *m = Metric { name, value, unit },
            None => self.0.push(Metric { name, value, unit }),
        }
    }

    pub fn get(&self, name: &str) -> Option<Metric> {
        self.0.iter().find(|m| m.name == name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Format a number for JSON: finite, with all its digits.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Measurements stamped with when they were taken, so a run can report
/// the median over one-second slices: a stall in one slice moves that
/// slice only.
#[derive(Debug, Default, Clone)]
pub struct Stamped(Vec<(f64, f64)>);

/// Width of one slice, seconds.
pub const SLICE_S: f64 = 1.0;

impl Stamped {
    /// `at`: seconds since the phase started, in increasing order.
    pub fn push(&mut self, at: f64, v: f64) {
        self.0.push((at, v));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Stamp of the newest value; `0.0` when empty.
    pub fn last_at(&self) -> f64 {
        self.0.last().map_or(0.0, |l| l.0)
    }

    pub fn all(&self) -> Samples {
        let mut s = Samples::default();
        for &(_, v) in &self.0 {
            s.push(v);
        }
        s
    }

    /// Values of each whole slice; one slice of everything when the
    /// phase is shorter than a slice.
    fn slices(&self) -> Vec<Samples> {
        let whole = self.0.last().map_or(0, |l| (l.0 / SLICE_S) as usize);
        if whole == 0 {
            return vec![self.all()];
        }
        let mut out = vec![Samples::default(); whole];
        for &(at, v) in &self.0 {
            if let Some(s) = out.get_mut((at / SLICE_S) as usize) {
                s.push(v);
            }
        }
        out
    }

    /// Median over slices of each slice's `q` quantile.
    pub fn slice_quantile(&self, q: f64) -> f64 {
        let mut m = Samples::default();
        for s in self.slices() {
            m.push(s.quantile(q));
        }
        m.median()
    }

    /// Median over whole slices of values per second.
    pub fn slice_rate(&self) -> f64 {
        let whole = self.0.last().map_or(0.0, |l| l.0);
        if whole < SLICE_S {
            return self.0.len() as f64 / whole.max(1e-9);
        }
        let mut m = Samples::default();
        for s in self.slices() {
            m.push(s.len() as f64 / SLICE_S);
        }
        m.median()
    }
}
