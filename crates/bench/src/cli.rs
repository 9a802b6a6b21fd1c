//! A minimal `--flag value` argument parser (no external dependency).

use std::collections::HashMap;

/// Parsed command-line flags.
#[derive(Debug, Default)]
pub struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse `--name value` pairs from `std::env::args`. A `--name`
    /// followed by another `--flag` or by the end of argv is a boolean
    /// and takes no value. `known` lists every flag the binary reads;
    /// any other `--flag`, or a bare argument, prints an error naming
    /// it and exits with status 2.
    pub fn parse(known: &[&str]) -> Self {
        Self::parse_from(known, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    fn parse_from(known: &[&str], argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut argv = argv.into_iter().peekable();
        while let Some(arg) = argv.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            if !known.contains(&name) {
                return Err(format!("unknown flag --{name} (accepted: --{})", known.join(", --")));
            }
            let value = argv
                .next_if(|next| !next.starts_with("--"))
                .unwrap_or_else(|| "true".to_string());
            flags.insert(name.to_string(), value);
        }
        Ok(Self { flags })
    }

    /// A `usize` flag with a default.
    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.flags
            .get(name)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("--{name} expects an integer, got {v:?}")))
            .unwrap_or(default)
    }

    /// A `u64` flag with a default.
    pub fn u64(&self, name: &str, default: u64) -> u64 {
        self.flags
            .get(name)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("--{name} expects an integer, got {v:?}")))
            .unwrap_or(default)
    }

    /// A string flag with a default.
    pub fn string(&self, name: &str, default: &str) -> String {
        self.flags.get(name).cloned().unwrap_or_else(|| default.to_string())
    }

    /// Whether a boolean flag is present.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_apply() {
        let args = Args::default();
        assert_eq!(args.usize("keys", 7), 7);
        assert_eq!(args.string("workload", "read-only"), "read-only");
        assert!(!args.flag("grid"));
    }

    fn parse_with(known: &[&str], argv: &[&str]) -> Result<Args, String> {
        Args::parse_from(known, argv.iter().map(|a| a.to_string()))
    }

    fn parse(argv: &[&str]) -> Args {
        parse_with(&["csv", "keys", "ops"], argv).unwrap()
    }

    #[test]
    fn boolean_flags_do_not_swallow_the_next_flag() {
        let args = parse(&["--csv", "--keys", "7"]);
        assert!(args.flag("csv"));
        assert_eq!(args.usize("keys", 0), 7);

        let args = parse(&["--keys", "7", "--csv"]);
        assert!(args.flag("csv"));
        assert_eq!(args.usize("keys", 0), 7);

        let args = parse(&["--keys", "7", "--csv", "--ops", "9"]);
        assert!(args.flag("csv"));
        assert_eq!(args.usize("keys", 0), 7);
        assert_eq!(args.usize("ops", 0), 9);
    }

    #[test]
    fn unknown_flags_and_bare_arguments_are_rejected() {
        let err = parse_with(&["csv", "keys"], &["--csv", "--kyes", "7"]).unwrap_err();
        assert!(err.contains("--kyes"), "error must name the flag: {err}");
        let err = parse_with(&["keys"], &["--keys", "7", "8"]).unwrap_err();
        assert!(err.contains("\"8\""), "error must name the argument: {err}");
        assert!(parse_with(&[], &[]).is_ok());
    }
}
