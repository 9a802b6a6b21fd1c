//! The command line. Every flag is known and takes one value: an
//! unknown flag, a missing or malformed value, a repeated flag, or a
//! stray word is an error.

pub const USAGE: &str =
    "usage: perfbench --workload <index-mixed|durable-write|serve-closed|serve-open> \
[--seed <u64>] [--seconds <1..=60>] [--trace <0|1>]";

pub const WORKLOADS: &[&str] = &["index-mixed", "durable-write", "serve-closed", "serve-open"];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny data sizes, for the self-tests: a run in well under a
    /// second. The command line always leaves it off.
    pub tiny: bool,
}

pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |slot_is_set: bool| -> Result<String, String> {
            if slot_is_set {
                return Err(format!("{flag} given twice"));
            }
            args.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value(workload.is_some())?;
                let known = WORKLOADS.iter().find(|w| **w == v);
                workload = Some(*known.ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value(seed.is_some())?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed wants a u64, got {v:?}"))?,
                );
            }
            "--seconds" => {
                let v = value(seconds.is_some())?;
                let s: u64 = v
                    .parse()
                    .map_err(|_| format!("--seconds wants an integer, got {v:?}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds must be in 1..=60, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                let v = value(trace.is_some())?;
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {v:?}")),
                });
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        tiny: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_full_form_and_defaults() {
        let a = p("--workload serve-open --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve-open",
                seed: 7,
                seconds: 3,
                trace: true,
                tiny: false
            }
        );
        let d = p("--workload index-mixed").unwrap();
        assert_eq!((d.seed, d.seconds, d.trace, d.tiny), (1, 10, false, false));
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        for bad in [
            "",
            "--workload",
            "--workload nope",
            "--workload index-mixed --csv",
            "--workload index-mixed --tiny",
            "--workload index-mixed --seed -1",
            "--workload index-mixed --seed 1 --seed 2",
            "--workload index-mixed --seconds 0",
            "--workload index-mixed --seconds 61",
            "--workload index-mixed --trace yes",
            "--workload=index-mixed",
            "index-mixed",
        ] {
            assert!(p(bad).is_err(), "accepted {bad:?}");
        }
    }
}
