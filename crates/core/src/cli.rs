//! The one command-line grammar of `regen` and `regend`.
//!
//! [`Args`] reads a command line in order. An argument that starts with
//! `-` (a lone `-` aside) is a flag; anything else is positional. A flag
//! that takes a value takes the next argument, whatever it looks like,
//! so in `--out --list` the `--list` is a file name, not a flag.
//!
//! Counts and millisecond durations follow one rule, whether they come
//! from a flag or from `REGEN_JOBS`: a positive integer. A bad one is a
//! usage error naming its source, and the binaries exit 2 on it before
//! anything runs.

use std::str::FromStr;
use std::time::Duration;

/// One argument, as [`Args`] reads it.
#[derive(Debug, PartialEq, Eq)]
pub enum Arg<'a> {
    /// `--name`, or a short flag such as `-h`.
    Flag(&'a str),
    /// Anything else: an artifact name, a URL, a path.
    Positional(&'a str),
}

/// Reads a command line: its flags and positional arguments in order,
/// and the value of the flag read last.
#[derive(Debug)]
pub struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
    /// The flag read last, which a value error names.
    flag: &'a str,
}

impl<'a> Args<'a> {
    pub fn new(args: &'a [String]) -> Args<'a> {
        Args { rest: args.iter(), flag: "" }
    }

    /// The value of the flag read last: the next argument.
    pub fn value(&mut self) -> Result<&'a str, String> {
        match self.rest.next() {
            Some(v) => Ok(v),
            None => Err(format!("{} needs a value", self.flag)),
        }
    }

    /// The flag's value as a count: a positive integer. (Not `count`,
    /// which [`Iterator::count`] would shadow.)
    pub fn positive<T: FromStr + From<u8> + PartialEq>(&mut self) -> Result<T, String> {
        let v = self.value()?;
        parse_count(v).map_err(|e| format!("{} {e}", self.flag))
    }

    /// The flag's value as a positive whole number of milliseconds.
    pub fn millis(&mut self) -> Result<Duration, String> {
        self.positive().map(Duration::from_millis)
    }
}

impl<'a> Iterator for Args<'a> {
    type Item = Arg<'a>;

    fn next(&mut self) -> Option<Arg<'a>> {
        let arg = self.rest.next()?;
        if arg.len() > 1 && arg.starts_with('-') {
            self.flag = arg;
            Some(Arg::Flag(arg))
        } else {
            Some(Arg::Positional(arg))
        }
    }
}

/// The one rule for a count, in an unsigned integer type: a positive
/// integer. The error completes a sentence whose subject is the source,
/// e.g. `format!("--jobs {e}")`.
fn parse_count<T: FromStr + From<u8> + PartialEq>(v: &str) -> Result<T, String> {
    match v.parse::<T>() {
        Ok(n) if n == T::from(0) => Err("must be at least 1".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("must be a positive integer, got {v:?}")),
    }
}

/// Strictly validates the `REGEN_JOBS` environment variable by the
/// count rule: `Ok(None)` when unset or empty, `Ok(Some(n))` for a
/// positive integer, and a one-line error message for anything else
/// (`0`, non-numeric, noise).
///
/// The binaries (`regen`, `regend`) call this at startup when no
/// `--jobs` was given and exit 2 on `Err`, so a typo'd environment
/// fails loudly instead of silently falling back to the machine default
/// and skewing a sweep's worker count.
pub fn jobs_from_env() -> Result<Option<usize>, String> {
    let v = match std::env::var("REGEN_JOBS") {
        Ok(v) => v,
        Err(_) => return Ok(None),
    };
    let v = v.trim();
    if v.is_empty() {
        return Ok(None);
    }
    parse_count(v).map(Some).map_err(|e| format!("REGEN_JOBS {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn counts_are_positive_integers() {
        assert_eq!(parse_count::<usize>("4"), Ok(4));
        assert_eq!(parse_count::<u32>("0"), Err("must be at least 1".to_string()));
        assert_eq!(
            parse_count::<u64>("x"),
            Err("must be a positive integer, got \"x\"".to_string())
        );
        assert!(parse_count::<u64>("-1").is_err());
        assert!(parse_count::<u64>("").is_err());
        assert!(parse_count::<u32>("4294967296").is_err(), "out of range for u32");
    }

    #[test]
    fn flags_and_positionals_come_back_in_order_with_their_values() {
        let argv = strings(&["table1", "--jobs", "4", "-", "-h", "--out", "--list", "--quick"]);
        let mut args = Args::new(&argv);
        assert_eq!(args.next(), Some(Arg::Positional("table1")));
        assert_eq!(args.next(), Some(Arg::Flag("--jobs")));
        assert_eq!(args.positive::<usize>(), Ok(4));
        assert_eq!(args.next(), Some(Arg::Positional("-")));
        assert_eq!(args.next(), Some(Arg::Flag("-h")));
        assert_eq!(args.next(), Some(Arg::Flag("--out")));
        assert_eq!(args.value(), Ok("--list"), "a value is never read as a flag");
        assert_eq!(args.next(), Some(Arg::Flag("--quick")));
        assert_eq!(args.next(), None);
        assert_eq!(args.value(), Err("--quick needs a value".to_string()));
    }

    #[test]
    fn bad_values_name_their_flag() {
        let argv = strings(&["--retries", "0", "--deadline-ms", "x", "--workers"]);
        let mut args = Args::new(&argv);
        args.next();
        assert_eq!(args.positive::<u32>(), Err("--retries must be at least 1".to_string()));
        args.next();
        assert_eq!(
            args.millis(),
            Err("--deadline-ms must be a positive integer, got \"x\"".to_string())
        );
        args.next();
        assert_eq!(args.positive::<usize>(), Err("--workers needs a value".to_string()));

        let argv = strings(&["--idle-timeout-ms", "250"]);
        let mut args = Args::new(&argv);
        args.next();
        assert_eq!(args.millis(), Ok(Duration::from_millis(250)));
    }
}
