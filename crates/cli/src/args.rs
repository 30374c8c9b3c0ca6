//! Minimal `--key value` / `--flag` argument parsing (no dependencies).

use std::collections::HashMap;

/// One subcommand: its name, the `--key value` options and bare
/// `--flag`s it accepts, and its handler. The table of these in
/// `main.rs` drives both dispatch and validation.
pub struct Command {
    pub name: &'static str,
    pub values: &'static [&'static str],
    pub flags: &'static [&'static str],
    pub run: fn(&Options) -> Result<(), String>,
}

/// Parsed options: `--key value` pairs and bare `--flag`s.
#[derive(Debug, Default)]
pub struct Options {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Options {
    /// Parses the argument list following the subcommand. An option the
    /// command does not accept is an error naming the ones it does.
    pub fn parse(command: &Command, args: &[String]) -> Result<Options, String> {
        let mut out = Options::default();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("expected `--option`, found `{arg}`"));
            };
            if command.flags.contains(&key) {
                out.flags.push(key.to_string());
                i += 1;
            } else if command.values.contains(&key) {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("`--{key}` needs a value"))?;
                if value.starts_with("--") {
                    return Err(format!("`--{key}` needs a value, found `{value}`"));
                }
                out.values.insert(key.to_string(), value.clone());
                i += 2;
            } else {
                let mut valid: Vec<String> = command
                    .values
                    .iter()
                    .chain(command.flags)
                    .map(|k| format!("--{k}"))
                    .collect();
                valid.sort();
                return Err(format!(
                    "unknown option `--{key}` for `{}` (valid options: {})",
                    command.name,
                    if valid.is_empty() {
                        "none".to_string()
                    } else {
                        valid.join(", ")
                    }
                ));
            }
        }
        Ok(out)
    }

    /// A value option, if present.
    pub fn get(&self, key: &str) -> Option<String> {
        self.values.get(key).cloned()
    }

    /// A required value option.
    pub fn require(&self, key: &str) -> Result<String, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option `--{key}`"))
    }

    /// A required option parsed to `T`.
    pub fn require_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.require(key)?
            .parse()
            .map_err(|_| format!("`--{key}` has an invalid value"))
    }

    /// An optional option parsed to `T`, with a default.
    pub fn parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`--{key}` has an invalid value")),
        }
    }

    /// True if a bare flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CMD: Command = Command {
        name: "demo",
        values: &["p", "seed", "matrix"],
        flags: &["diagram", "events"],
        run: |_| Ok(()),
    };

    fn parse(items: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        Options::parse(&CMD, &args)
    }

    #[test]
    fn parses_values_and_flags() {
        let o = parse(&["--p", "20", "--diagram", "--seed", "7"]).unwrap();
        assert_eq!(o.get("p").as_deref(), Some("20"));
        assert!(o.flag("diagram"));
        assert!(!o.flag("events"));
        assert_eq!(o.parsed_or::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(o.parsed_or::<u64>("absent", 42).unwrap(), 42);
        assert_eq!(o.require_parsed::<usize>("p").unwrap(), 20);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["--p"]).is_err());
        assert!(parse(&["--p", "--diagram"]).is_err());
        assert!(parse(&["stray"]).is_err());
    }

    #[test]
    fn an_option_outside_the_commands_list_names_the_valid_ones() {
        let err = parse(&["--sead", "7"]).unwrap_err();
        assert!(err.contains("`--sead`") && err.contains("`demo`"), "{err}");
        assert!(
            err.contains("--diagram, --events, --matrix, --p, --seed"),
            "{err}"
        );
    }

    #[test]
    fn missing_required_reported() {
        let o = parse(&[]).unwrap();
        assert!(o.require("matrix").unwrap_err().contains("--matrix"));
        assert!(o.require_parsed::<usize>("p").is_err());
    }

    #[test]
    fn bad_parse_reported() {
        let o = parse(&["--p", "abc"]).unwrap();
        assert!(o.require_parsed::<usize>("p").is_err());
        assert!(o.parsed_or::<usize>("p", 1).is_err());
    }
}
