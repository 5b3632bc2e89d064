//! The behaviour fingerprint: exact simulated counters recorded for the
//! default seed in `fingerprint.json`, which every run on that seed must
//! reproduce bit for bit: the executor's simulated instruction counts on
//! every run, the simulator's counters on traced runs. On any other seed
//! traced runs check only the paper's ordering (see
//! `layers::check_sim_order`).

use crate::Outcome;
use serde::Value;

const RECORDED: &str = include_str!("../fingerprint.json");

pub struct Fingerprint {
    /// The seed the fingerprint was recorded with.
    pub default_seed: u64,
    /// A seed kept out of tuning, for re-checking claims on unseen data.
    pub held_out_seed: u64,
    counts: Vec<(String, f64)>,
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(u) => Some(u as f64),
        Value::I64(i) => Some(i as f64),
        Value::F64(x) => Some(x),
        _ => None,
    }
}

impl Fingerprint {
    /// Parses the recorded fingerprint compiled into the binary.
    ///
    /// # Panics
    ///
    /// Panics if `fingerprint.json` is not a well-formed fingerprint file.
    pub fn load() -> Self {
        let v: Value = serde_json::from_str(RECORDED).expect("fingerprint.json is valid JSON");
        let seed = |name| {
            v.get_field(name)
                .and_then(number)
                .unwrap_or_else(|| panic!("fingerprint.json lacks {name}")) as u64
        };
        let counts = v
            .get_field("counts")
            .and_then(Value::as_object)
            .expect("fingerprint.json has a counts object")
            .iter()
            .map(|(k, v)| {
                let x = number(v).unwrap_or_else(|| panic!("fingerprint {k} is not a number"));
                (k.clone(), x)
            })
            .collect();
        Fingerprint {
            default_seed: seed("default_seed"),
            held_out_seed: seed("held_out_seed"),
            counts,
        }
    }

    /// On the default seed, requires every measured count to equal its
    /// recorded value exactly.
    pub fn check(&self, seed: u64, measured: &[(String, f64)], out: &mut Outcome) {
        if seed != self.default_seed {
            return;
        }
        for (key, value) in measured {
            match self.counts.iter().find(|(k, _)| k == key) {
                Some((_, recorded)) => out.require(recorded == value, || {
                    format!("fingerprint {key}: recorded {recorded}, measured {value}")
                }),
                None => out.require(false, || {
                    format!("fingerprint {key} was never recorded; measured {value}")
                }),
            }
        }
    }
}
