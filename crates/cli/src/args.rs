//! Minimal flag parsing (no external dependencies).

/// Parsed positional arguments, `--flag value` options, and boolean
/// `--switch` flags.
pub struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `argv`; every `--flag` consumes the following token as its
    /// value.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        Self::parse_with_switches(argv, &[])
    }

    /// Like [`Args::parse`], but flags named in `switches` are boolean:
    /// they consume no value and are queried with [`Args::switch`].
    pub fn parse_with_switches(argv: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut options = Vec::new();
        let mut seen_switches = Vec::new();
        let mut it = argv.iter();
        while let Some(tok) = it.next() {
            if let Some(flag) = tok.strip_prefix("--") {
                if switches.contains(&flag) {
                    seen_switches.push(flag.to_string());
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{flag} needs a value"))?;
                options.push((flag.to_string(), value.clone()));
            } else if tok == "-o" {
                let value = it.next().ok_or("-o needs a value")?;
                options.push(("output".to_string(), value.clone()));
            } else {
                positional.push(tok.clone());
            }
        }
        Ok(Self {
            positional,
            options,
            switches: seen_switches,
        })
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing {what}"))
    }

    /// An option's value, if present.
    pub fn option(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// A required option.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.option(name)
            .ok_or_else(|| format!("missing --{name} (or -o for output)"))
    }

    /// Whether a boolean `--switch` was passed (only names registered via
    /// [`Args::parse_with_switches`] can appear here).
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// A float-valued option.
    pub fn float(&self, name: &str) -> Result<Option<f64>, String> {
        self.option(name)
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| format!("--{name}: not a number: {v}"))
            })
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_positionals_and_flags() {
        let a = Args::parse(&argv(&["in.zmd", "-o", "out.zms", "--codec", "sz"])).unwrap();
        assert_eq!(a.positional(0, "input").unwrap(), "in.zmd");
        assert_eq!(a.required("output").unwrap(), "out.zms");
        assert_eq!(a.option("codec"), Some("sz"));
        assert_eq!(a.option("nope"), None);
        assert!(a.positional(1, "x").is_err());
    }

    #[test]
    fn flags_need_values() {
        assert!(Args::parse(&argv(&["--policy"])).is_err());
        assert!(Args::parse(&argv(&["-o"])).is_err());
    }

    #[test]
    fn floats_parse() {
        let a = Args::parse(&argv(&["--rel-eb", "1e-4"])).unwrap();
        assert_eq!(a.float("rel-eb").unwrap(), Some(1e-4));
        let bad = Args::parse(&argv(&["--rel-eb", "abc"])).unwrap();
        assert!(bad.float("rel-eb").is_err());
    }

    #[test]
    fn switches_consume_no_value() {
        let a = Args::parse_with_switches(
            &argv(&["in.zms", "--salvage", "--field", "density"]),
            &["salvage"],
        )
        .unwrap();
        assert!(a.switch("salvage"));
        assert!(!a.switch("verbose"));
        assert_eq!(a.positional(0, "input").unwrap(), "in.zms");
        assert_eq!(a.option("field"), Some("density"));
        // A trailing switch parses fine (it never needs a value).
        let b = Args::parse_with_switches(&argv(&["--salvage"]), &["salvage"]).unwrap();
        assert!(b.switch("salvage"));
        // Unregistered, the same token is a value flag and fails.
        assert!(Args::parse(&argv(&["--salvage"])).is_err());
    }

    #[test]
    fn last_repeated_flag_wins() {
        let a = Args::parse(&argv(&["--codec", "sz", "--codec", "zfp"])).unwrap();
        assert_eq!(a.option("codec"), Some("zfp"));
    }
}
