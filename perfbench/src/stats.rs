//! Small order statistics and the metric sink the report is built from.

/// Nearest-rank percentile of `values` (`p` in `[0, 1]`); `0.0` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Which clock a metric is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time.
    Wall,
    /// The cost model's simulated Hadoop/S3 clock (Eq. 6 milliseconds).
    Simulated,
    /// Not a time: a count, ratio, size or rate of work.
    None,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Self::Wall => "wall",
            Self::Simulated => "simulated",
            Self::None => "-",
        }
    }
}

/// One named metric of a run.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

/// Ordered collection of metrics; names are unique.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, clock: Clock) {
        let name = name.into();
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} recorded twice"
        );
        // JSON has no NaN/inf; a ratio with an empty base reads as 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name,
            value,
            unit,
            clock,
        });
    }

    /// Human-readable table: name, value, unit and clock.
    pub fn print(&self, title: &str) {
        println!("{title}");
        for m in &self.0 {
            println!(
                "  {:<34} {:>14.4} {:<8} [{}]",
                m.name,
                m.value,
                m.unit,
                m.clock.label()
            );
        }
    }

    /// The `metrics` object of the result line.
    pub fn json_object(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Deterministic 64-bit generator (SplitMix64): the benchmark's inputs
/// depend only on `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
